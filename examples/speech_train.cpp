// Distributed cross-entropy training over the in-process MPI runtime.
//
// Reproduces the paper's master/worker architecture end to end: the master
// (rank 0) synthesizes the corpus, partitions utterances with the
// sorted-balanced scheme of Sec. V-C, ships shards over point-to-point
// messages (load_data), then drives Algorithm 1 where every weight sync is
// an MPI-style broadcast and every gradient/curvature aggregation is a
// gather folded in rank order. A serial run over the same shards is
// executed afterwards to demonstrate the bitwise "no loss in accuracy"
// property.
//
// Usage: speech_train [workers=4] [hours=0.005] [iters=5] [hidden=24]
#include <cmath>
#include <cstdio>

#include "hf/trainer.h"
#include "util/config.h"
#include "util/table.h"

namespace {

int run(int argc, char** argv) {
  using namespace bgqhf;

  const util::Config cfg = util::Config::from_args(argc, argv);

  hf::TrainerConfig trainer;
  trainer.workers = static_cast<int>(cfg.get_int("workers", 4));
  trainer.corpus.hours = cfg.get_double("hours", 0.01);
  trainer.corpus.feature_dim = 12;
  trainer.corpus.num_states = 5;
  trainer.corpus.mean_utt_seconds = 1.5;  // enough utterances to shard
  trainer.corpus.seed = 7;
  trainer.heldout_every_kth = 4;
  trainer.context = 2;
  trainer.hidden = {static_cast<std::size_t>(cfg.get_int("hidden", 24))};
  trainer.hf.max_iterations =
      static_cast<std::size_t>(cfg.get_int("iters", 5));
  trainer.hf.hyper.cg_max_iters = 25;

  for (const auto& key : cfg.unused_keys()) {
    std::fprintf(stderr, "unknown flag: %s\n", key.c_str());
    return 1;
  }

  std::printf("Distributed HF training: 1 master + %d workers, %.3f h of "
              "synthetic speech\n",
              trainer.workers, trainer.corpus.hours);

  const hf::TrainOutcome distributed = hf::train_distributed(trainer);

  util::Table table({"iter", "train CE", "held-out CE", "CG", "failed"});
  for (const auto& it : distributed.hf.iterations) {
    table.add_row({std::to_string(it.iteration),
                   util::Table::fmt(it.train_loss, 4),
                   util::Table::fmt(it.heldout_after, 4),
                   std::to_string(it.cg_iterations),
                   it.failed ? "yes" : "no"});
  }
  std::printf("%s", table.render().c_str());

  std::printf(
      "\nCommunication: %zu p2p msgs (%.2f MB, load_data), %zu collective "
      "calls (%.2f MB, sync_weights + gathers)\n",
      distributed.comm.p2p_messages(),
      distributed.comm.p2p_bytes() / 1048576.0,
      distributed.comm.collective_calls(),
      distributed.comm.collective_bytes() / 1048576.0);

  // "No loss in accuracy": the serial trajectory over the same shards is
  // bitwise identical.
  const hf::TrainOutcome serial = hf::train_serial(trainer);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < serial.theta.size(); ++i) {
    if (serial.theta[i] != distributed.theta[i]) ++diffs;
  }
  std::printf(
      "\nSerial-vs-distributed check: %zu / %zu parameters differ "
      "(expect 0)\nfinal held-out CE: distributed %.6f, serial %.6f, "
      "accuracy %.1f%%\n",
      diffs, serial.theta.size(), distributed.hf.final_heldout_loss,
      serial.hf.final_heldout_loss,
      100.0 * distributed.hf.final_heldout_accuracy);
  return diffs == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed or unknown BGQHF_* knob ends the run with one line naming
  // it, not an uncaught-exception abort.
  try {
    return run(argc, argv);
  } catch (const bgqhf::util::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
