// nn / serve micro-calls at a workload's shapes, and the per-layer metrics
// a workload reports for layers it does not run (zero work, stated as 0).
#pragma once

#include <cstddef>
#include <span>

#include "bench.h"
#include "blas/matrix.h"
#include "nn/network.h"
#include "speech/dataset.h"

namespace perfbench {

/// Serving engine batch target shared by serve_utts and the micro-calls.
inline constexpr std::size_t kServeBatchFrames = 256;

struct MicroShape {
  /// At least max(batch_frames, score_frames) rows, one label per row.
  bgqhf::blas::ConstMatrixView<float> x;
  std::span<const int> labels;
  std::size_t batch_frames = 0;  // forward / gradient batch
  /// One utterance of the workload's mean length (GN product).
  bgqhf::blas::ConstMatrixView<float> utterance;
  std::size_t score_frames = kServeBatchFrames;  // ModelRuntime::score batch
};

struct MicroTimes {
  double forward_ms = 0.0;
  double gradient_ms = 0.0;
  double gn_product_ms = 0.0;
  double score_ms = 0.0;
};

/// Training shapes from one worker shard: `batch_frames` rows, the
/// utterance closest to the shard's mean length, and serving's batch.
MicroShape shape_of(const bgqhf::speech::Dataset& shard,
                    std::size_t batch_frames);

/// Median wall time of each call over a few repetitions after a warm-up.
MicroTimes time_micro_calls(const bgqhf::nn::Network& net,
                            const MicroShape& shape);

void set_micro_metrics(const MicroTimes& t, Result& res);
void set_idle_serve_metrics(Result& res);
void set_idle_training_metrics(Result& res);

}  // namespace perfbench
