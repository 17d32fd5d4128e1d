// L-BFGS and Krylov-subspace-descent baselines: exact behaviour on convex
// quadratics (via QuadraticCompute) and end-to-end behaviour on the
// synthetic speech task.
#include <gtest/gtest.h>

#include "hf/ksd.h"
#include "hf/lbfgs.h"
#include "hf/optimizer.h"
#include "hf/serial_compute.h"
#include "hf/speech_workload.h"
#include "hf/trainer.h"
#include "quadratic_compute.h"

namespace bgqhf::hf {
namespace {

using testing::QuadraticCompute;

double distance_to(const std::vector<double>& target,
                   std::span<const float> theta) {
  double d2 = 0.0;
  for (std::size_t i = 0; i < target.size(); ++i) {
    const double d = target[i] - theta[i];
    d2 += d * d;
  }
  return std::sqrt(d2);
}

// ---- L-BFGS ----

TEST(Lbfgs, MinimizesRandomQuadratic) {
  QuadraticCompute q = QuadraticCompute::random(12, 1.0, 2);
  const std::vector<double> target = q.minimizer();
  std::vector<float> theta(12, 0.0f);
  LbfgsOptions opts;
  opts.max_iterations = 60;
  LbfgsOptimizer opt(opts);
  const LbfgsResult result = opt.run(q, theta);
  EXPECT_LT(distance_to(target, theta), 0.05);
  EXPECT_FALSE(result.iterations.empty());
}

TEST(Lbfgs, HeldoutLossMonotoneNonIncreasing) {
  QuadraticCompute q = QuadraticCompute::random(10, 0.5, 3);
  std::vector<float> theta(10, 0.0f);
  LbfgsOptions opts;
  opts.max_iterations = 30;
  const LbfgsResult result = LbfgsOptimizer(opts).run(q, theta);
  double prev = 1e300;
  for (const auto& log : result.iterations) {
    EXPECT_LE(log.heldout_loss, prev + 1e-9);
    prev = log.heldout_loss;
  }
}

TEST(Lbfgs, ConvergesFlagAtStationaryPoint) {
  // Start exactly at the minimizer: the first gradient is ~0.
  QuadraticCompute q = QuadraticCompute::diagonal({2.0, 3.0}, 4);
  const std::vector<double> target = q.minimizer();
  std::vector<float> theta{static_cast<float>(target[0]),
                           static_cast<float>(target[1])};
  LbfgsOptions opts;
  opts.grad_tol = 1e-3;
  const LbfgsResult result = LbfgsOptimizer(opts).run(q, theta);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations.size(), 1u);
}

TEST(Lbfgs, BeatsSteepestDescentOnIllConditionedQuadratic) {
  // History length 0-vs-8 on a kappa=1e4 diagonal: memory must help.
  std::vector<double> diag(16);
  for (std::size_t i = 0; i < diag.size(); ++i) {
    diag[i] = std::pow(10.0, static_cast<double>(i % 5));
  }
  auto run_with_history = [&](std::size_t hist) {
    QuadraticCompute q = QuadraticCompute::diagonal(diag, 5);
    std::vector<float> theta(diag.size(), 0.0f);
    LbfgsOptions opts;
    opts.max_iterations = 25;
    opts.history = hist;
    LbfgsOptimizer(opts).run(q, theta);
    return distance_to(q.minimizer(), theta);
  };
  EXPECT_LT(run_with_history(8), run_with_history(0));
}

TEST(Lbfgs, TrainsSpeechTask) {
  TrainerConfig cfg;
  cfg.workers = 1;
  cfg.corpus.hours = 0.002;
  cfg.corpus.feature_dim = 8;
  cfg.corpus.num_states = 4;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = 81;
  cfg.context = 1;
  cfg.hidden = {10};
  cfg.heldout_every_kth = 4;
  Shards shards = build_shards(cfg);
  std::vector<std::unique_ptr<Workload>> wl;
  wl.push_back(std::make_unique<SpeechWorkload>(
      shards.net, speech::concat_datasets(shards.train),
      speech::concat_datasets(shards.heldout), 0,
      make_workload_options(cfg, shards.num_states, shards.advance_prob,
                            nullptr)));
  SerialCompute compute(std::move(wl));
  std::vector<float> theta(shards.net.params().begin(),
                           shards.net.params().end());
  LbfgsOptions opts;
  opts.max_iterations = 15;
  const LbfgsResult result = LbfgsOptimizer(opts).run(compute, theta);
  EXPECT_LT(result.final_heldout_loss,
            0.9 * result.iterations.front().heldout_loss + 0.1);
}

TEST(Lbfgs, ThetaSizeMismatchThrows) {
  QuadraticCompute q = QuadraticCompute::random(5, 1.0, 6);
  std::vector<float> wrong(3, 0.0f);
  LbfgsOptions opts;
  EXPECT_THROW(LbfgsOptimizer(opts).run(q, wrong), std::invalid_argument);
}

// ---- KSD ----

TEST(Ksd, SolveSpdSolvesSmallSystem) {
  // A = [[4, 2], [2, 3]], b = [2, 5] -> x = [-0.5, 2].
  std::vector<double> a{4, 2, 2, 3};
  std::vector<double> b{2, 5};
  ASSERT_TRUE(solve_spd_inplace(a, 2, b));
  EXPECT_NEAR(b[0], -0.5, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(Ksd, SolveSpdRejectsIndefiniteMatrix) {
  std::vector<double> a{1, 2, 2, 1};  // eigenvalues 3, -1
  std::vector<double> b{1, 1};
  EXPECT_FALSE(solve_spd_inplace(a, 2, b));
}

TEST(Ksd, FullDimensionalSubspaceSolvesQuadraticInOneStep) {
  // With subspace_dim >= n and lambda = 0, the projected solve IS the
  // Newton step; one iteration lands on the minimizer.
  QuadraticCompute q = QuadraticCompute::random(6, 1.0, 7);
  const std::vector<double> target = q.minimizer();
  std::vector<float> theta(6, 0.0f);
  KsdOptions opts;
  opts.max_iterations = 1;
  opts.subspace_dim = 6;
  opts.lambda = 0.0;
  KsdOptimizer(opts).run(q, theta);
  EXPECT_LT(distance_to(target, theta), 0.02);
}

TEST(Ksd, ProgressesWithSmallSubspace) {
  QuadraticCompute q = QuadraticCompute::random(20, 0.5, 8);
  const std::vector<double> target = q.minimizer();
  std::vector<float> theta(20, 0.0f);
  const double initial = distance_to(target, theta);
  KsdOptions opts;
  opts.max_iterations = 10;
  opts.subspace_dim = 4;
  opts.lambda = 0.01;
  const KsdResult result = KsdOptimizer(opts).run(q, theta);
  EXPECT_LT(distance_to(target, theta), 0.2 * initial);
  for (const auto& log : result.iterations) {
    EXPECT_GE(log.basis_size, 1u);
    EXPECT_LE(log.basis_size, 4u);
  }
}

TEST(Ksd, HeldoutLossNonIncreasing) {
  QuadraticCompute q = QuadraticCompute::random(10, 1.0, 9);
  std::vector<float> theta(10, 0.0f);
  KsdOptions opts;
  opts.max_iterations = 8;
  opts.subspace_dim = 3;
  const KsdResult result = KsdOptimizer(opts).run(q, theta);
  double prev = 1e300;
  for (const auto& log : result.iterations) {
    EXPECT_LE(log.heldout_loss, prev + 1e-9);
    prev = log.heldout_loss;
  }
}

TEST(Ksd, TrainsSpeechTask) {
  TrainerConfig cfg;
  cfg.workers = 1;
  cfg.corpus.hours = 0.002;
  cfg.corpus.feature_dim = 8;
  cfg.corpus.num_states = 4;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = 91;
  cfg.context = 1;
  cfg.hidden = {10};
  cfg.heldout_every_kth = 4;
  Shards shards = build_shards(cfg);
  std::vector<std::unique_ptr<Workload>> wl;
  wl.push_back(std::make_unique<SpeechWorkload>(
      shards.net, speech::concat_datasets(shards.train),
      speech::concat_datasets(shards.heldout), 0,
      make_workload_options(cfg, shards.num_states, shards.advance_prob,
                            nullptr)));
  SerialCompute compute(std::move(wl));
  std::vector<float> theta(shards.net.params().begin(),
                           shards.net.params().end());
  KsdOptions opts;
  opts.max_iterations = 6;
  opts.subspace_dim = 6;
  const KsdResult result = KsdOptimizer(opts).run(compute, theta);
  EXPECT_LT(result.final_heldout_loss,
            result.iterations.front().heldout_loss);
}

// ---- HF itself on the quadratic (ties Algorithm 1 into the same frame) --

TEST(HfOnQuadratic, ReachesMinimizerQuickly) {
  QuadraticCompute q = QuadraticCompute::random(8, 1.0, 10);
  const std::vector<double> target = q.minimizer();
  std::vector<float> theta(8, 0.0f);
  HfOptions opts;
  opts.max_iterations = 4;
  opts.hyper.cg_max_iters = 40;
  opts.cg.progress_tol = 0.0;
  opts.hyper.lambda0 = 1e-4;  // quadratic model is exact here
  HfOptimizer(opts).run(q, theta);
  EXPECT_LT(distance_to(target, theta), 0.05);
}

}  // namespace
}  // namespace bgqhf::hf
