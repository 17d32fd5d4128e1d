// Synchronous data-parallel SGD over the simmpi runtime.
//
// The functional counterpart of bgq::sgd_model: every rank computes the
// gradient of its local slice of the mini-batch, an allreduce sums the
// slices, and all ranks apply the identical update (deterministic tree
// reduction keeps replicas bitwise in sync). This is the scheme the
// paper's Related Work rules out at scale — every update pays a
// full-parameter allreduce — implemented here so the trade-off can be
// *measured* as well as modeled.
#pragma once

#include "hf/sgd.h"
#include "hf/trainer.h"
#include "simmpi/stats.h"

namespace bgqhf::hf {

struct DistributedSgdOutcome {
  SgdResult sgd;
  std::vector<float> theta;
  simmpi::CommStats comm;
  double seconds = 0.0;
  /// Global mini-batch frames per update (sum of per-rank slices).
  std::size_t effective_batch_frames = 0;
};

/// Train with synchronous parallel SGD, one rank per shard of
/// build_shards (config.workers + 1 ranks; no separate master: the
/// allreduce is symmetric). `options.batch_frames` is the per-rank slice,
/// so the effective global batch is ranks * batch_frames. All ranks hold identical parameters throughout;
/// the returned theta is rank 0's copy.
DistributedSgdOutcome train_sgd_distributed(const TrainerConfig& config,
                                            const SgdOptions& options);

}  // namespace bgqhf::hf
