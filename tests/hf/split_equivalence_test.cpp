// The pre-existing bitwise-equivalence gates, re-run inside a split
// sub-communicator: a full HF trainer living in a subgroup of a larger
// world (the LTFB population shape) must produce the exact trajectory of
// train_serial / train_distributed over the same shards — collectives,
// compression, and FT all behave identically through the split layer.
#include <gtest/gtest.h>

#include <vector>

#include "hf/trainer.h"
#include "simmpi/communicator.h"

namespace bgqhf::hf {
namespace {

TrainerConfig config(int workers) {
  TrainerConfig cfg;
  cfg.workers = workers;
  cfg.corpus.hours = 0.002;
  cfg.corpus.feature_dim = 8;
  cfg.corpus.num_states = 4;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = 303;
  cfg.context = 1;
  cfg.hidden = {12};
  cfg.heldout_every_kth = 4;
  cfg.hf.hyper.curvature_fraction = 0.15;
  cfg.hf.max_iterations = 3;
  cfg.hf.hyper.cg_max_iters = 15;
  cfg.hf.seed = 11;
  return cfg;
}

/// Run the trainer inside a split subgroup of a world padded with `pad`
/// bystander ranks (they split off into their own group and do nothing,
/// like a sibling LTFB population would).
TrainOutcome train_in_subgroup(const TrainerConfig& cfg, int pad) {
  const int group = cfg.workers + 1;
  TrainOutcome out;
  out.worker_phases.assign(static_cast<std::size_t>(cfg.workers),
                           PhaseStats{});
  const Shards shards = build_shards(cfg);
  simmpi::World world(group + pad);
  simmpi::run_ranks(world, [&](simmpi::Comm& comm) {
    const bool member = comm.rank() < group;
    simmpi::Comm sub = comm.split(member ? 0 : 1, comm.rank());
    if (!member) return;
    train_over(sub, cfg, shards, nullptr, out);
  });
  out.comm = world.total_stats();
  return out;
}

void expect_bitwise_equal(const TrainOutcome& a, const TrainOutcome& b) {
  ASSERT_EQ(a.theta.size(), b.theta.size());
  for (std::size_t i = 0; i < a.theta.size(); ++i) {
    ASSERT_EQ(a.theta[i], b.theta[i]) << "param " << i;
  }
  EXPECT_EQ(a.hf.final_heldout_loss, b.hf.final_heldout_loss);
  ASSERT_EQ(a.hf.iterations.size(), b.hf.iterations.size());
  for (std::size_t i = 0; i < a.hf.iterations.size(); ++i) {
    EXPECT_EQ(a.hf.iterations[i].heldout_after,
              b.hf.iterations[i].heldout_after)
        << "iter " << i;
    EXPECT_EQ(a.hf.iterations[i].cg_iterations,
              b.hf.iterations[i].cg_iterations)
        << "iter " << i;
  }
}

TEST(SplitEquivalence, SubgroupTrainingBitwiseEqualsSerial) {
  const TrainerConfig cfg = config(2);
  const TrainOutcome serial = train_serial(cfg);
  const TrainOutcome sub = train_in_subgroup(cfg, /*pad=*/2);
  expect_bitwise_equal(serial, sub);
}

TEST(SplitEquivalence, SubgroupTrainingBitwiseEqualsWholeWorld) {
  const TrainerConfig cfg = config(3);
  const TrainOutcome whole = train_distributed(cfg);
  const TrainOutcome sub = train_in_subgroup(cfg, /*pad=*/3);
  expect_bitwise_equal(whole, sub);
}

TEST(SplitEquivalence, CompressedSubgroupMirrorsCompressedSerial) {
  TrainerConfig cfg = config(2);
  cfg.aggregation.compress.mode = simmpi::CompressMode::kTopK;
  cfg.aggregation.compress.topk_fraction = 0.25;
  cfg.aggregation.compress.min_values = 1;
  const TrainOutcome serial = train_serial(cfg);
  const TrainOutcome sub = train_in_subgroup(cfg, /*pad=*/2);
  expect_bitwise_equal(serial, sub);
}

TEST(SplitEquivalence, FtSubgroupMirrorsSerial) {
  TrainerConfig cfg = config(2);
  cfg.aggregation = {};  // FT rejects an env-set codec
  cfg.ft.enabled = true;
  cfg.ft.reply_timeout = 0.5;
  cfg.ft.command_timeout = 10.0;
  cfg.ft.verbose = false;
  const TrainOutcome sub = train_in_subgroup(cfg, /*pad=*/2);
  cfg.ft = FtOptions{};
  const TrainOutcome serial = train_serial(cfg);
  ASSERT_EQ(serial.theta.size(), sub.theta.size());
  for (std::size_t i = 0; i < serial.theta.size(); ++i) {
    ASSERT_EQ(serial.theta[i], sub.theta[i]) << "param " << i;
  }
}

}  // namespace
}  // namespace bgqhf::hf
