// Synthetic speech corpus generator.
//
// Substitute for the paper's proprietary 50-/400-hour corpora (DESIGN.md
// Sec. 2). The generator reproduces the statistical properties that matter
// to the system: (i) utterance lengths follow a heavy-tailed (log-normal)
// duration distribution, creating the load-balancing problem of Sec. V-C;
// (ii) frames are drawn from per-state Gaussians traversed by a left-to-
// right dwell process, so a DNN genuinely has structure to learn and a
// trained model's held-out loss/accuracy is a meaningful signal; (iii) the
// corpus scales by "hours" exactly as the paper's does (100 frames/sec).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "speech/utterance.h"
#include "util/rng.h"

namespace bgqhf::speech {

struct CorpusSpec {
  /// Amount of audio; 50 h in the paper is ~18 M frames at 100 fps.
  double hours = 0.01;
  double frames_per_second = 100.0;
  std::size_t feature_dim = 20;
  /// Number of HMM states (classes). Real systems use thousands of
  /// context-dependent states; tests use a handful.
  std::size_t num_states = 8;
  /// Log-normal utterance duration parameters (seconds).
  double mean_utt_seconds = 5.0;
  double log_sigma = 0.6;
  /// Expected frames spent in a state before advancing.
  double state_dwell_frames = 8.0;
  /// Acoustic noise around state means.
  double noise_stddev = 0.6;
  std::uint64_t seed = 1234;
};

struct Corpus {
  std::vector<Utterance> utterances;
  std::size_t feature_dim = 0;
  std::size_t num_states = 0;

  std::size_t total_frames() const;
};

/// Streaming utterance generator: yields the exact utterance sequence
/// generate_corpus materializes, one at a time, so the sharded store can
/// stage a 400-hour-spec corpus without ever holding it in RAM.
/// Deterministic in spec.seed (same RNG fork discipline as the batch
/// generator; generate_corpus is a thin loop over this class).
class CorpusGenerator {
 public:
  explicit CorpusGenerator(const CorpusSpec& spec);

  /// The next utterance, or nullopt once the spec's target frame count is
  /// reached.
  std::optional<Utterance> next();

 private:
  CorpusSpec spec_;
  std::vector<std::vector<float>> state_means_;
  util::Rng len_rng_;
  util::Rng path_rng_;
  util::Rng noise_rng_;
  std::size_t target_frames_ = 0;
  double mu_ = 0.0;
  std::size_t frames_so_far_ = 0;
  std::uint64_t next_id_ = 0;
};

/// Generate a corpus from the spec (deterministic in spec.seed).
Corpus generate_corpus(const CorpusSpec& spec);

/// Number of frames a spec implies (without generating), used by the
/// performance model for the 50 h / 400 h workloads.
std::size_t spec_total_frames(const CorpusSpec& spec);

}  // namespace bgqhf::speech
