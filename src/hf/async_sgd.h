// Asynchronous parameter-server SGD (Downpour-style).
//
// The paper's Related Work notes that "recently [14] explored a
// distributed asynchronous SGD method to improve DNN training speed"
// (Dean et al., Large Scale Distributed Deep Networks). This is that
// architecture on our runtime: rank 0 is a parameter server holding the
// authoritative weights; workers independently pull parameters, compute
// mini-batch gradients on their shard, and push them back — no barriers,
// no lockstep, gradients applied in whatever order they arrive (so
// updates are computed against slightly stale parameters). It trades the
// bitwise determinism of the paper's synchronous HF design for update
// throughput.
#pragma once

#include "hf/sgd.h"
#include "hf/trainer.h"
#include "simmpi/stats.h"

namespace bgqhf::hf {

struct AsyncSgdOptions {
  SgdOptions sgd;
  /// Mini-batch steps each worker performs before finishing.
  std::size_t steps_per_worker = 50;
  /// Workers re-pull the server's parameters every `pull_every` steps;
  /// larger values mean staler gradients (Downpour's n_fetch).
  std::size_t pull_every = 1;
};

struct AsyncSgdOutcome {
  std::vector<float> theta;       // final server parameters
  double final_heldout_loss = 0.0;
  double final_heldout_accuracy = 0.0;
  std::size_t updates_applied = 0;  // gradient pushes the server consumed
  simmpi::CommStats comm;
  double seconds = 0.0;
};

/// Train with asynchronous parameter-server SGD across one worker rank per
/// shard of build_shards (config.workers + 1) plus one server rank.
/// Nondeterministic by design (update order depends on thread scheduling);
/// the returned metrics are the server's final state evaluated on the full
/// held-out set.
AsyncSgdOutcome train_sgd_async(const TrainerConfig& config,
                                const AsyncSgdOptions& options);

}  // namespace bgqhf::hf
