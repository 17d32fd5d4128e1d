#include "hf/async_sgd.h"

#include <gtest/gtest.h>

#include <cmath>

namespace bgqhf::hf {
namespace {

TrainerConfig config(int workers) {
  TrainerConfig cfg;
  cfg.workers = workers;
  cfg.corpus.hours = 0.004;
  cfg.corpus.feature_dim = 8;
  cfg.corpus.num_states = 4;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = 181;
  cfg.context = 1;
  cfg.hidden = {12};
  cfg.heldout_every_kth = 4;
  return cfg;
}

AsyncSgdOptions options(std::size_t steps = 60) {
  AsyncSgdOptions opts;
  opts.sgd.batch_frames = 64;
  opts.sgd.learning_rate = 0.1;
  opts.steps_per_worker = steps;
  return opts;
}

double untrained_loss(const TrainerConfig& cfg) {
  // Chance-level CE for a fresh network ~ log(num_states).
  return std::log(static_cast<double>(cfg.corpus.num_states));
}

TEST(AsyncSgd, TrainsWithMultipleWorkers) {
  const TrainerConfig cfg = config(3);
  const AsyncSgdOutcome out = train_sgd_async(cfg, options());
  EXPECT_LT(out.final_heldout_loss, 0.75 * untrained_loss(cfg));
  EXPECT_GT(out.final_heldout_accuracy, 0.5);
}

TEST(AsyncSgd, ServerConsumesEveryPush) {
  const TrainerConfig cfg = config(2);
  const AsyncSgdOptions opts = options(40);
  const AsyncSgdOutcome out = train_sgd_async(cfg, opts);
  // One worker per shard (config.workers + 1 of them), each pushing once
  // per step; none may be lost.
  EXPECT_EQ(out.updates_applied, 3u * 40u);
}

TEST(AsyncSgd, OneWorkerConfigTrainsBothShards) {
  // config.workers = 1 still splits the data into two shards, so two SGD
  // workers push.
  const TrainerConfig cfg = config(1);
  const AsyncSgdOutcome out = train_sgd_async(cfg, options(80));
  EXPECT_EQ(out.updates_applied, 2u * 80u);
  EXPECT_LT(out.final_heldout_loss, 0.75 * untrained_loss(cfg));
}

TEST(AsyncSgd, StalePullsStillConverge) {
  // Downpour's n_fetch > 1: pulling every 5 steps means gradients are
  // computed against parameters up to 5 updates stale; training should
  // still make progress (the paper's [14] robustness observation).
  const TrainerConfig cfg = config(2);
  AsyncSgdOptions opts = options(80);
  opts.pull_every = 5;
  const AsyncSgdOutcome out = train_sgd_async(cfg, opts);
  EXPECT_LT(out.final_heldout_loss, 0.85 * untrained_loss(cfg));
}

TEST(AsyncSgd, ReportsCommunicationTraffic) {
  const AsyncSgdOutcome out = train_sgd_async(config(2), options(20));
  // Pulls + pushes are all point-to-point: (pull req + resp + push) per
  // step per worker, plus the final exchanges.
  EXPECT_GT(out.comm.p2p_messages(), 2u * 20u * 2u);
  EXPECT_GT(out.comm.p2p_bytes(), 0u);
  EXPECT_EQ(out.comm.collective_bytes(), 0u);  // no collectives in Downpour
}

TEST(AsyncSgd, FinalThetaHasNetworkSize) {
  const TrainerConfig cfg = config(2);
  const AsyncSgdOutcome out = train_sgd_async(cfg, options(10));
  const Shards shards = build_shards(cfg);
  EXPECT_EQ(out.theta.size(), shards.net.num_params());
}

}  // namespace
}  // namespace bgqhf::hf
