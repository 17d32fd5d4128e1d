#include "hf/distributed_sgd.h"

#include <gtest/gtest.h>

namespace bgqhf::hf {
namespace {

TrainerConfig config(int workers) {
  TrainerConfig cfg;
  cfg.workers = workers;
  cfg.corpus.hours = 0.004;
  cfg.corpus.feature_dim = 8;
  cfg.corpus.num_states = 4;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = 141;
  cfg.context = 1;
  cfg.hidden = {12};
  cfg.heldout_every_kth = 4;
  return cfg;
}

SgdOptions options() {
  SgdOptions opts;
  opts.epochs = 4;
  opts.batch_frames = 64;
  return opts;
}

TEST(DistributedSgd, ReducesHeldoutLoss) {
  const DistributedSgdOutcome out =
      train_sgd_distributed(config(3), options());
  ASSERT_EQ(out.sgd.epochs.size(), 4u);
  EXPECT_LT(out.sgd.epochs.back().heldout_loss,
            out.sgd.epochs.front().heldout_loss);
  EXPECT_GT(out.sgd.final_heldout_accuracy, 0.5);
}

TEST(DistributedSgd, DeterministicAcrossRuns) {
  const DistributedSgdOutcome a =
      train_sgd_distributed(config(2), options());
  const DistributedSgdOutcome b =
      train_sgd_distributed(config(2), options());
  ASSERT_EQ(a.theta.size(), b.theta.size());
  for (std::size_t i = 0; i < a.theta.size(); ++i) {
    ASSERT_EQ(a.theta[i], b.theta[i]) << i;
  }
}

TEST(DistributedSgd, EffectiveBatchScalesWithWorkers) {
  // One rank per shard: config.workers + 1 ranks, 64 frames each.
  const DistributedSgdOutcome two =
      train_sgd_distributed(config(2), options());
  const DistributedSgdOutcome four =
      train_sgd_distributed(config(4), options());
  EXPECT_EQ(two.effective_batch_frames, 192u);
  EXPECT_EQ(four.effective_batch_frames, 320u);
}

TEST(DistributedSgd, CommunicationVolumeScalesWithUpdates) {
  // Every update is an allreduce of the full parameter vector — the cost
  // structure the Related Work section argues makes parallel SGD lose.
  const TrainerConfig cfg = config(2);
  SgdOptions short_opts = options();
  short_opts.epochs = 1;
  SgdOptions long_opts = options();
  long_opts.epochs = 3;
  const DistributedSgdOutcome short_run =
      train_sgd_distributed(cfg, short_opts);
  const DistributedSgdOutcome long_run =
      train_sgd_distributed(cfg, long_opts);
  EXPECT_GT(long_run.comm.collective_bytes(),
            2 * short_run.comm.collective_bytes());
}

TEST(DistributedSgd, MoreWorkersStillTrain) {
  const DistributedSgdOutcome out =
      train_sgd_distributed(config(5), options());
  EXPECT_LT(out.sgd.final_heldout_loss,
            out.sgd.epochs.front().heldout_loss + 0.5);
  EXPECT_GT(out.sgd.updates, 0u);
}

TEST(DistributedSgd, SingleWorkerMatchesDynamics) {
  // One worker = serial SGD over the (single) shard; sanity that the
  // distributed wrapper adds no drift.
  const DistributedSgdOutcome dist =
      train_sgd_distributed(config(1), options());
  EXPECT_LT(dist.sgd.final_heldout_loss,
            dist.sgd.epochs.front().heldout_loss);
}

}  // namespace
}  // namespace bgqhf::hf
