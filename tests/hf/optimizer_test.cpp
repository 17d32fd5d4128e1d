#include "hf/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "hf/serial_compute.h"
#include "hf/speech_workload.h"
#include "hf/trainer.h"
#include "nn/loss.h"
#include "util/rng.h"

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

// Forwards to a real compute and records the theta installed at every
// held-out evaluation, grouped by outer iteration (each opens with one
// gradient call).
class CountingCompute : public HfCompute {
 public:
  explicit CountingCompute(HfCompute& inner) : inner_(inner) {}

  std::size_t num_params() const override { return inner_.num_params(); }
  std::size_t total_train_frames() const override {
    return inner_.total_train_frames();
  }
  void set_params(std::span<const float> theta) override {
    theta_.assign(theta.begin(), theta.end());
    inner_.set_params(theta);
  }
  nn::BatchLoss gradient(std::span<float> grad_out) override {
    per_iteration.emplace_back();
    return inner_.gradient(grad_out);
  }
  nn::BatchLoss gradient_with_squares(std::span<float> grad_out,
                                      std::span<float> grad_sq_out) override {
    per_iteration.emplace_back();
    return inner_.gradient_with_squares(grad_out, grad_sq_out);
  }
  void prepare_curvature(std::uint64_t seed) override {
    inner_.prepare_curvature(seed);
  }
  void curvature_product(std::span<const float> v,
                         std::span<float> out) override {
    inner_.curvature_product(v, out);
  }
  nn::BatchLoss heldout_loss() override {
    ++calls;
    if (!per_iteration.empty()) per_iteration.back().push_back(theta_);
    return inner_.heldout_loss();
  }

  std::vector<std::vector<std::vector<float>>> per_iteration;
  std::size_t calls = 0;

 private:
  HfCompute& inner_;
  std::vector<float> theta_;
};

TEST(Optimizer, NoThetaGetsTwoHeldoutEvaluationsInOneIteration) {
  TrainerConfig cfg = small_config();
  Shards shards = build_shards(cfg);
  std::vector<std::unique_ptr<Workload>> wl;
  wl.push_back(std::make_unique<SpeechWorkload>(
      shards.net, speech::concat_datasets(shards.train),
      speech::concat_datasets(shards.heldout), 0,
      make_workload_options(cfg, shards.num_states, shards.advance_prob,
                            nullptr)));
  SerialCompute serial(std::move(wl));
  CountingCompute compute(serial);
  std::vector<float> theta(shards.net.params().begin(),
                           shards.net.params().end());
  const HfResult result = HfOptimizer(cfg.hf).run(compute, theta);

  // The last call is the final evaluation after the loop, not part of an
  // iteration (the first one precedes every gradient and is not recorded).
  ASSERT_EQ(compute.per_iteration.size(), result.iterations.size());
  ASSERT_FALSE(compute.per_iteration.back().empty());
  compute.per_iteration.back().pop_back();
  std::size_t accepted_full_steps = 0;
  std::size_t logged = 0;
  for (std::size_t it = 0; it < result.iterations.size(); ++it) {
    const auto& thetas = compute.per_iteration[it];
    for (std::size_t a = 0; a < thetas.size(); ++a) {
      for (std::size_t b = a + 1; b < thetas.size(); ++b) {
        EXPECT_NE(thetas[a], thetas[b])
            << "iteration " << it + 1 << " evaluates one theta twice";
      }
    }
    EXPECT_EQ(thetas.size(), result.iterations[it].heldout_evals);
    logged += result.iterations[it].heldout_evals;
    if (result.iterations[it].alpha == 1.0) ++accepted_full_steps;
  }
  // The reused alpha = 1 probe is the common case, so the run exercises it.
  EXPECT_GT(accepted_full_steps, 0u);
  // One evaluation before the first iteration and one after the last.
  EXPECT_EQ(compute.calls, logged + 2);
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

std::vector<float> curvature_product_of(SpeechWorkload& wl,
                                        std::span<const float> v) {
  std::vector<float> out(wl.num_params(), 0.0f);
  wl.curvature_product(v, out);
  return out;
}

std::vector<float> random_direction(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

TEST(Workload, CurvatureResamplesWithSeed) {
  TrainerConfig cfg = small_config();
  Shards shards = build_shards(cfg);
  SpeechWorkload wl(shards.net, speech::concat_datasets(shards.train),
                    speech::concat_datasets(shards.heldout), 0,
                    make_workload_options(cfg, shards.num_states,
                                          shards.advance_prob, nullptr));
  const std::vector<float> v = random_direction(wl.num_params(), 3);
  wl.prepare_curvature(1);
  const std::vector<float> seed1 = curvature_product_of(wl, v);
  wl.prepare_curvature(1);
  EXPECT_EQ(curvature_product_of(wl, v), seed1);  // deterministic in seed
  wl.prepare_curvature(2);
  EXPECT_NE(curvature_product_of(wl, v), seed1);  // a fresh sample
}

TEST(Workload, CurvatureFractionOutsideUnitIntervalThrows) {
  TrainerConfig cfg = small_config();
  Shards shards = build_shards(cfg);
  const auto make = [&](double fraction) {
    SpeechWorkloadOptions opts = make_workload_options(
        cfg, shards.num_states, shards.advance_prob, nullptr);
    opts.curvature_fraction = fraction;
    return SpeechWorkload(shards.net, shards.train[0], shards.heldout[0], 0,
                          opts);
  };
  SpeechWorkload wl = make(1.0);
  for (const double bad : {0.0, -0.5, 1.5, std::nan(""), HUGE_VAL}) {
    EXPECT_THROW(make(bad), std::invalid_argument) << bad;
    EXPECT_THROW(wl.set_curvature_fraction(bad), std::invalid_argument)
        << bad;
  }
  wl.set_curvature_fraction(0.25);
}

// A corpus of many short utterances, sampled into several packed blocks.
TrainerConfig sample_config(Criterion criterion) {
  TrainerConfig cfg = small_config();
  cfg.corpus.hours = 0.01;  // ~3600 frames
  cfg.corpus.mean_utt_seconds = 0.3;
  cfg.criterion = criterion;
  cfg.batch_frames = 96;
  cfg.hf.hyper.curvature_fraction = 0.15;
  return cfg;
}

// The training shards of a `ranks`-rank job over one corpus: build_shards
// cuts it into workers + 1 frame-balanced shards, and one rank trains on
// all of it.
struct Job {
  Shards shards;
  std::vector<speech::Dataset> train;
};

Job job_of(TrainerConfig cfg, std::size_t ranks) {
  cfg.workers = ranks == 1 ? 1 : static_cast<int>(ranks) - 1;
  Job job{build_shards(cfg), {}};
  if (ranks == 1) {
    job.train.push_back(speech::concat_datasets(job.shards.train));
  } else {
    job.train = job.shards.train;
  }
  return job;
}

std::size_t budget_of(double fraction, std::size_t frames) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(fraction * frames)));
}

bool is_utterance_boundary(const speech::Dataset& ds, std::size_t row) {
  return std::binary_search(ds.offsets.begin(), ds.offsets.end(), row);
}

TEST(Workload, CurvatureSampleMeetsTheFrameBudgetAtAnyShardCount) {
  for (const Criterion criterion :
       {Criterion::kCrossEntropy, Criterion::kSequence}) {
    const TrainerConfig cfg = sample_config(criterion);
    const double fraction = cfg.hf.hyper.curvature_fraction;
    for (std::size_t ranks = 1; ranks <= 4; ++ranks) {
      SCOPED_TRACE(testing::Message()
                   << "ranks=" << ranks << " sequence="
                   << (criterion == Criterion::kSequence));
      const Job job = job_of(cfg, ranks);
      std::size_t job_frames = 0;
      std::size_t job_sample = 0;
      for (std::size_t s = 0; s < ranks; ++s) {
        const speech::Dataset& shard = job.train[s];
        std::size_t longest = 0;
        for (std::size_t u = 0; u < shard.num_utterances(); ++u) {
          longest = std::max(longest, shard.utt_frames(u));
        }
        ASSERT_LE(longest, cfg.batch_frames);  // every utterance fits a block
        SpeechWorkload wl(job.shards.net, shard, job.shards.heldout[0], s,
                          make_workload_options(cfg, job.shards.num_states,
                                                job.shards.advance_prob,
                                                nullptr));
        wl.prepare_curvature(11);
        const std::size_t budget = budget_of(fraction, shard.num_frames());
        if (criterion == Criterion::kCrossEntropy) {
          EXPECT_EQ(wl.curvature_frames(), budget);
        } else {
          EXPECT_GE(wl.curvature_frames(), budget);
          EXPECT_LT(wl.curvature_frames(), budget + longest);
        }
        std::size_t packed = 0;
        for (const auto block : wl.curvature_blocks()) {
          EXPECT_LE(block.size(), cfg.batch_frames);
          packed += block.size();
          if (criterion == Criterion::kSequence) {
            // Whole utterances: every run of consecutive rows starts and
            // ends on an utterance boundary.
            for (std::size_t i = 0; i < block.size(); ++i) {
              if (i == 0 || block[i] != block[i - 1] + 1) {
                EXPECT_TRUE(is_utterance_boundary(shard, block[i]));
              }
              if (i + 1 == block.size() || block[i + 1] != block[i] + 1) {
                EXPECT_TRUE(is_utterance_boundary(shard, block[i] + 1));
              }
            }
          }
        }
        EXPECT_EQ(packed, wl.curvature_frames());
        job_frames += shard.num_frames();
        job_sample += wl.curvature_frames();
      }
      if (criterion == Criterion::kCrossEntropy) {
        const std::size_t target = static_cast<std::size_t>(
            std::llround(fraction * static_cast<double>(job_frames)));
        EXPECT_LE(std::max(job_sample, target) - std::min(job_sample, target),
                  ranks);
      }
    }
  }
}

// Packing changes how the sampled rows meet the GEMMs, not the product:
// under CE it is the sum of one-frame products over the same rows, and
// under the sequence criterion the sum of whole-utterance products.
TEST(Workload, PackedCurvatureProductEqualsUnpackedSum) {
  for (const Criterion criterion :
       {Criterion::kCrossEntropy, Criterion::kSequence}) {
    SCOPED_TRACE(criterion == Criterion::kSequence ? "sequence" : "ce");
    const TrainerConfig cfg = sample_config(criterion);
    const Job job = job_of(cfg, 1);
    const speech::Dataset& train = job.train[0];
    const SpeechWorkloadOptions opts = make_workload_options(
        cfg, job.shards.num_states, job.shards.advance_prob, nullptr);
    SpeechWorkload wl(job.shards.net, train, job.shards.heldout[0], 0, opts);
    wl.prepare_curvature(5);
    ASSERT_GT(wl.curvature_blocks().size(), 1u);
    const std::vector<float> v = random_direction(wl.num_params(), 9);
    const std::vector<float> packed = curvature_product_of(wl, v);

    const nn::Network& net = wl.network();
    std::vector<float> unpacked(wl.num_params(), 0.0f);
    const auto add_rows = [&](std::size_t begin, std::size_t rows) {
      const auto x = train.x.view().block(begin, 0, rows, train.x.cols());
      const nn::ForwardCache cache = net.forward(x);
      blas::Matrix<float> probs(rows, net.output_dim());
      if (criterion == Criterion::kCrossEntropy) {
        nn::softmax_rows(cache.logits(), probs.view());
      } else {
        probs = nn::forward_backward(cache.logits(), opts.transitions).gamma;
      }
      nn::accumulate_gn_product_with_distribution(net, x, cache,
                                                  probs.view(), v, unpacked);
    };
    for (const auto block : wl.curvature_blocks()) {
      for (const std::size_t row : block) {
        if (criterion == Criterion::kCrossEntropy) {
          add_rows(row, 1);
        } else if (is_utterance_boundary(train, row)) {
          const auto u = static_cast<std::size_t>(
              std::lower_bound(train.offsets.begin(), train.offsets.end(),
                               row) -
              train.offsets.begin());
          add_rows(row, train.utt_frames(u));
        }
      }
    }
    float scale = 0.0f;
    for (const float g : unpacked) scale = std::max(scale, std::abs(g));
    ASSERT_GT(scale, 0.0f);
    for (std::size_t i = 0; i < packed.size(); ++i) {
      ASSERT_NEAR(packed[i], unpacked[i], 1e-4f * scale) << "param " << i;
    }
  }
}

}  // namespace
}  // namespace bgqhf::hf
