// Synthetic open-loop load generator with seeded arrival processes.
//
// Open-loop means arrivals do not wait for completions — the generator
// submits on a precomputed schedule exactly like independent users would,
// which is the only way to observe real queueing delay and overload
// behaviour (a closed loop self-throttles and hides both). The schedule
// (exponential inter-arrivals) and every request's feature content derive
// from one seed, so a replay is the same trace byte-for-byte and CI can
// assert exact outcomes (e.g. zero rejects) on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "blas/matrix.h"
#include "serve/engine.h"

namespace bgqhf::serve {

struct LoadGenOptions {
  std::size_t num_requests = 256;
  /// Mean arrival rate, requests/second. 0 = no pacing: the whole trace is
  /// submitted immediately (a saturation / max-throughput probe).
  double rate_rps = 0.0;
  /// Frames per request, drawn uniformly from [min_frames, max_frames].
  std::size_t min_frames = 1;
  std::size_t max_frames = 1;
  /// Relative deadline applied to every request (0 = none).
  std::uint64_t deadline_us = 0;
  std::uint64_t seed = 1;
};

/// One precomputed request of a canned trace.
struct TimedRequest {
  double arrival_s = 0.0;  // offset from trace start
  blas::Matrix<float> features;
};

/// Deterministically expand options into a request trace for a model with
/// `input_dim` features (same seed + options -> identical trace).
std::vector<TimedRequest> generate_trace(const LoadGenOptions& options,
                                         std::size_t input_dim);

struct LoadGenReport {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected_overloaded = 0;
  std::size_t rejected_deadline = 0;
  std::size_t failed = 0;  // any other error (should be zero)
  double seconds = 0.0;    // first submit -> last completion
  double requests_per_s = 0.0;
  double frames_per_s = 0.0;
  /// Exact client-side latency stats over completed requests (sorted
  /// sample, not a bucket estimate), in microseconds.
  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
};

/// Replay `trace` against the engine open-loop and wait for every
/// response. Overloaded submissions are counted, not retried.
LoadGenReport replay_trace(Engine& engine, std::vector<TimedRequest> trace,
                           std::uint64_t deadline_us);

/// generate_trace + replay_trace in one call.
LoadGenReport run_load(Engine& engine, const LoadGenOptions& options);

}  // namespace bgqhf::serve
