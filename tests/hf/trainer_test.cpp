#include "hf/trainer.h"

#include <gtest/gtest.h>

#include <numeric>

#include "nn/loss.h"

namespace bgqhf::hf {
namespace {

TrainerConfig small_config(int workers) {
  TrainerConfig cfg;
  cfg.workers = workers;
  cfg.corpus.hours = 0.004;
  cfg.corpus.feature_dim = 8;
  cfg.corpus.num_states = 4;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = 121;
  cfg.context = 1;
  cfg.hidden = {10};
  cfg.heldout_every_kth = 4;
  cfg.hf.max_iterations = 2;
  cfg.hf.hyper.cg_max_iters = 10;
  return cfg;
}

TEST(BuildShards, ShardCountsMatchWorkers) {
  // One shard per rank: the workers and the master.
  const Shards shards = build_shards(small_config(3));
  EXPECT_EQ(shards.train.size(), 4u);
  EXPECT_EQ(shards.heldout.size(), 4u);
}

TEST(BuildShards, TrainFramesSumToCorpusMinusHeldout) {
  const TrainerConfig cfg = small_config(2);
  const Shards shards = build_shards(cfg);
  std::size_t train_frames = 0, held_frames = 0;
  for (const auto& s : shards.train) train_frames += s.num_frames();
  for (const auto& s : shards.heldout) held_frames += s.num_frames();
  EXPECT_EQ(shards.total_train_frames, train_frames);
  EXPECT_GT(held_frames, 0u);
  // The full synthesized corpus splits exactly into train + heldout.
  speech::Corpus corpus = speech::generate_corpus(cfg.corpus);
  EXPECT_EQ(train_frames + held_frames, corpus.total_frames());
}

TEST(BuildShards, Deterministic) {
  const Shards a = build_shards(small_config(2));
  const Shards b = build_shards(small_config(2));
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t w = 0; w < a.train.size(); ++w) {
    ASSERT_EQ(a.train[w].num_frames(), b.train[w].num_frames());
    for (std::size_t i = 0; i < a.train[w].x.size(); ++i) {
      ASSERT_EQ(a.train[w].x.data()[i], b.train[w].x.data()[i]);
    }
  }
  for (std::size_t i = 0; i < a.net.num_params(); ++i) {
    ASSERT_EQ(a.net.params()[i], b.net.params()[i]);
  }
}

TEST(BuildShards, SortedPartitionBalancesFrames) {
  TrainerConfig cfg = small_config(4);
  cfg.corpus.hours = 0.02;  // enough utterances to balance
  const Shards shards = build_shards(cfg);
  std::size_t min_f = SIZE_MAX, max_f = 0;
  for (const auto& s : shards.train) {
    min_f = std::min(min_f, s.num_frames());
    max_f = std::max(max_f, s.num_frames());
  }
  EXPECT_LT(static_cast<double>(max_f) / static_cast<double>(min_f), 1.3);
}

TEST(BuildShards, NetworkTopologyFromConfig) {
  TrainerConfig cfg = small_config(1);
  cfg.hidden = {7, 5};
  cfg.context = 2;
  const Shards shards = build_shards(cfg);
  EXPECT_EQ(shards.net.input_dim(), 8u * 5u);  // dim * (2*2+1)
  EXPECT_EQ(shards.net.num_layers(), 3u);
  EXPECT_EQ(shards.net.output_dim(), 4u);
}

TEST(BuildShards, TooSmallCorpusForHeldoutThrows) {
  TrainerConfig cfg = small_config(1);
  cfg.corpus.hours = 0.0005;  // ~2 utterances
  cfg.heldout_every_kth = 50;
  EXPECT_THROW(build_shards(cfg), std::invalid_argument);
}

TEST(BuildShards, ZeroWorkersRejected) {
  TrainerConfig cfg = small_config(0);
  EXPECT_THROW(build_shards(cfg), std::invalid_argument);
}

TEST(Trainer, PhaseStatsPopulatedByDistributedRun) {
  const TrainOutcome out = train_distributed(small_config(2));
  // Master must have timed every phase of the schedule.
  EXPECT_GT(out.master_phases.calls(Phase::kSyncWeights), 0u);
  EXPECT_EQ(out.master_phases.calls(Phase::kGradient), 2u);  // 2 HF iters
  EXPECT_EQ(out.master_phases.calls(Phase::kCurvaturePrepare), 2u);
  EXPECT_GT(out.master_phases.calls(Phase::kCurvatureProduct), 0u);
  EXPECT_GT(out.master_phases.calls(Phase::kHeldoutLoss), 0u);
  EXPECT_EQ(out.master_phases.calls(Phase::kLoadData), 1u);
  // Workers mirror the master's command counts.
  ASSERT_EQ(out.worker_phases.size(), 2u);
  for (const auto& w : out.worker_phases) {
    EXPECT_EQ(w.calls(Phase::kGradient),
              out.master_phases.calls(Phase::kGradient));
    EXPECT_EQ(w.calls(Phase::kCurvatureProduct),
              out.master_phases.calls(Phase::kCurvatureProduct));
    EXPECT_EQ(w.calls(Phase::kShutdown), 1u);
    EXPECT_GT(w.total_seconds(), 0.0);
  }
}

TEST(Trainer, MasterTrainsOnShardZeroBesideALoneWorker) {
  // workers = 1 is a two-rank job over two shards: the lone worker holds
  // only shard 1, so matching serial training over both shards bitwise
  // means rank 0 computed shard 0's share of every primitive.
  TrainerConfig cfg = small_config(1);
  const Shards shards = build_shards(cfg);
  ASSERT_EQ(shards.train.size(), 2u);
  EXPECT_GT(shards.train[0].num_frames(), 0u);
  EXPECT_LT(shards.train[1].num_frames(),
            shards.total_train_frames * 6 / 10);

  const TrainOutcome serial = train_serial(cfg);
  const TrainOutcome distributed = train_distributed(cfg);
  ASSERT_EQ(serial.theta.size(), distributed.theta.size());
  for (std::size_t i = 0; i < serial.theta.size(); ++i) {
    ASSERT_EQ(serial.theta[i], distributed.theta[i]) << "param " << i;
  }
  EXPECT_EQ(serial.hf.final_heldout_loss, distributed.hf.final_heldout_loss);
  EXPECT_GT(distributed.master_phases.seconds(Phase::kGradient), 0.0);
  ASSERT_EQ(distributed.worker_phases.size(), 1u);
  EXPECT_EQ(distributed.worker_phases[0].calls(Phase::kGradient),
            distributed.master_phases.calls(Phase::kGradient));
}

TEST(Trainer, SerialRunLeavesPhaseStatsEmpty) {
  const TrainOutcome out = train_serial(small_config(2));
  EXPECT_EQ(out.master_phases.total_seconds(), 0.0);
  EXPECT_TRUE(out.worker_phases.empty());
}

TEST(Trainer, NaivePartitionStillTrainsCorrectly) {
  TrainerConfig cfg = small_config(3);
  cfg.partition = speech::PartitionStrategy::kNaiveEqualCount;
  cfg.hf.max_iterations = 3;
  const TrainOutcome out = train_distributed(cfg);
  EXPECT_LT(out.hf.final_heldout_loss,
            out.hf.iterations.front().heldout_before);
  // Load balancing is a performance technique; it must not change results
  // beyond resharding effects (here: it trains either way).
}

TEST(Trainer, PhaseStatsAccumulate) {
  PhaseStats stats;
  stats.add(Phase::kGradient, 1.5);
  stats.add(Phase::kGradient, 0.5);
  stats.add(Phase::kHeldoutLoss, 1.0);
  EXPECT_DOUBLE_EQ(stats.seconds(Phase::kGradient), 2.0);
  EXPECT_EQ(stats.calls(Phase::kGradient), 2u);
  EXPECT_DOUBLE_EQ(stats.total_seconds(), 3.0);
  PhaseStats other;
  other.add(Phase::kGradient, 1.0);
  stats += other;
  EXPECT_DOUBLE_EQ(stats.seconds(Phase::kGradient), 3.0);
  EXPECT_EQ(stats.calls(Phase::kGradient), 3u);
}

TEST(Trainer, PhaseNamesMatchPaperFunctions) {
  EXPECT_EQ(to_string(Phase::kLoadData), "load_data");
  EXPECT_EQ(to_string(Phase::kSyncWeights), "sync_weights");
  EXPECT_EQ(to_string(Phase::kGradient), "gradient_loss");
  EXPECT_EQ(to_string(Phase::kCurvatureProduct), "curvature_product");
  EXPECT_EQ(to_string(Phase::kHeldoutLoss), "heldout_loss");
}

}  // namespace
}  // namespace bgqhf::hf

namespace bgqhf::hf {
namespace {

TEST(Trainer, SpeakerCmvnOptionStillTrainsAndStaysEquivalent) {
  TrainerConfig cfg = small_config(2);
  cfg.speaker_cmvn = true;
  cfg.hf.max_iterations = 3;
  const TrainOutcome serial = train_serial(cfg);
  const TrainOutcome distributed = train_distributed(cfg);
  EXPECT_LT(serial.hf.final_heldout_loss,
            serial.hf.iterations.front().heldout_before);
  ASSERT_EQ(serial.theta.size(), distributed.theta.size());
  for (std::size_t i = 0; i < serial.theta.size(); ++i) {
    ASSERT_EQ(serial.theta[i], distributed.theta[i]);
  }
}

TEST(Trainer, CmvnChangesTheData) {
  TrainerConfig plain = small_config(1);
  TrainerConfig cmvn = small_config(1);
  cmvn.speaker_cmvn = true;
  const Shards a = build_shards(plain);
  const Shards b = build_shards(cmvn);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.train[0].x.size() && !any_diff; ++i) {
    any_diff = a.train[0].x.data()[i] != b.train[0].x.data()[i];
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace bgqhf::hf

namespace bgqhf::hf {
namespace {

TEST(Trainer, PretrainedInitSchemesTrainAndStayEquivalent) {
  for (const InitScheme init : {InitScheme::kLayerwise, InitScheme::kRbm}) {
    TrainerConfig cfg = small_config(2);
    cfg.corpus.hours = 0.006;
    cfg.init = init;
    cfg.hf.max_iterations = 2;
    const TrainOutcome serial = train_serial(cfg);
    const TrainOutcome distributed = train_distributed(cfg);
    EXPECT_LE(serial.hf.final_heldout_loss,
              serial.hf.iterations.front().heldout_before + 1e-9)
        << "init " << static_cast<int>(init);
    ASSERT_EQ(serial.theta.size(), distributed.theta.size());
    for (std::size_t i = 0; i < serial.theta.size(); ++i) {
      ASSERT_EQ(serial.theta[i], distributed.theta[i])
          << "init " << static_cast<int>(init) << " param " << i;
    }
  }
}

TEST(Trainer, LayerwiseInitStartsBelowGlorot) {
  TrainerConfig glorot = small_config(1);
  glorot.corpus.hours = 0.006;
  TrainerConfig layerwise = glorot;
  layerwise.init = InitScheme::kLayerwise;
  const Shards g = build_shards(glorot);
  const Shards l = build_shards(layerwise);
  // Evaluate both inits on the same held-out shard.
  auto heldout_ce = [](const Shards& s) {
    nn::BatchLoss total;
    for (const auto& shard : s.heldout) {
      if (shard.num_frames() == 0) continue;
      const blas::Matrix<float> logits =
          s.net.forward_logits(shard.x.view());
      total += nn::softmax_xent(logits.view(), shard.labels);
    }
    return total.mean_loss();
  };
  EXPECT_LT(heldout_ce(l), 0.8 * heldout_ce(g));
}

}  // namespace
}  // namespace bgqhf::hf
