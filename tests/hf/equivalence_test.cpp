// The paper's central accuracy claim, in its strongest testable form:
// distributing HF training across ranks changes *nothing* about the
// optimization trajectory. SerialCompute folds the sums of P shards in
// shard order; the distributed run tree-reduces the partials of P
// computing ranks (the master's own shard 0 in slot 0) in rank order;
// given identical shards the two are bitwise identical.
#include <gtest/gtest.h>

#include "blas/dispatch.h"
#include "hf/trainer.h"

namespace bgqhf::hf {
namespace {

TrainerConfig config(int workers, Criterion criterion) {
  TrainerConfig cfg;
  cfg.workers = workers;
  cfg.corpus.hours = 0.002;
  cfg.corpus.feature_dim = 8;
  cfg.corpus.num_states = 4;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = 303;
  cfg.context = 1;
  cfg.hidden = {12};
  cfg.criterion = criterion;
  cfg.heldout_every_kth = 4;
  cfg.hf.hyper.curvature_fraction = 0.15;
  cfg.hf.max_iterations = 3;
  cfg.hf.hyper.cg_max_iters = 15;
  cfg.hf.seed = 11;
  return cfg;
}

class EquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EquivalenceTest, DistributedThetaBitwiseEqualsSerial) {
  const int workers = GetParam();
  const TrainerConfig cfg = config(workers, Criterion::kCrossEntropy);
  const TrainOutcome serial = train_serial(cfg);
  const TrainOutcome distributed = train_distributed(cfg);
  ASSERT_EQ(serial.theta.size(), distributed.theta.size());
  for (std::size_t i = 0; i < serial.theta.size(); ++i) {
    ASSERT_EQ(serial.theta[i], distributed.theta[i]) << "param " << i;
  }
  EXPECT_EQ(serial.hf.final_heldout_loss, distributed.hf.final_heldout_loss);
  EXPECT_EQ(serial.hf.final_heldout_accuracy,
            distributed.hf.final_heldout_accuracy);
}

TEST_P(EquivalenceTest, IterationTrajectoriesMatch) {
  const int workers = GetParam();
  const TrainerConfig cfg = config(workers, Criterion::kCrossEntropy);
  const TrainOutcome serial = train_serial(cfg);
  const TrainOutcome distributed = train_distributed(cfg);
  ASSERT_EQ(serial.hf.iterations.size(), distributed.hf.iterations.size());
  for (std::size_t i = 0; i < serial.hf.iterations.size(); ++i) {
    const auto& s = serial.hf.iterations[i];
    const auto& d = distributed.hf.iterations[i];
    EXPECT_EQ(s.train_loss, d.train_loss) << "iter " << i;
    EXPECT_EQ(s.heldout_after, d.heldout_after) << "iter " << i;
    EXPECT_EQ(s.cg_iterations, d.cg_iterations) << "iter " << i;
    EXPECT_EQ(s.chosen_iterate, d.chosen_iterate) << "iter " << i;
    EXPECT_EQ(s.alpha, d.alpha) << "iter " << i;
    EXPECT_EQ(s.failed, d.failed) << "iter " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, EquivalenceTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(Equivalence, SequenceCriterionAlsoMatches) {
  const TrainerConfig cfg = config(2, Criterion::kSequence);
  const TrainOutcome serial = train_serial(cfg);
  const TrainOutcome distributed = train_distributed(cfg);
  ASSERT_EQ(serial.theta.size(), distributed.theta.size());
  for (std::size_t i = 0; i < serial.theta.size(); ++i) {
    ASSERT_EQ(serial.theta[i], distributed.theta[i]) << "param " << i;
  }
}

// The avx512 SGEMM kernel is bitwise identical to the avx2 one, so the
// whole training run must be too. Layer widths 40, 27 and 11 put full 8x16
// tiles and both 8-column fringe halves into every primitive's GEMMs.
TEST(Equivalence, Avx512KernelTrainsBitwiseLikeAvx2) {
  if (!blas::kernel_supported(blas::KernelKind::kAvx512)) {
    GTEST_SKIP() << "CPU lacks AVX-512";
  }
  struct Restore {
    blas::KernelKind kind;
    ~Restore() { blas::set_kernel_override(kind); }
  } restore{blas::active_kernels().kind};
  for (const Criterion criterion :
       {Criterion::kCrossEntropy, Criterion::kSequence}) {
    TrainerConfig cfg = config(1, criterion);
    cfg.corpus.feature_dim = 13;
    cfg.corpus.num_states = 11;
    cfg.hidden = {40, 27};
    ASSERT_TRUE(blas::set_kernel_override(blas::KernelKind::kAvx2));
    const TrainOutcome avx2 = train_serial(cfg);
    ASSERT_TRUE(blas::set_kernel_override(blas::KernelKind::kAvx512));
    const TrainOutcome avx512 = train_serial(cfg);
    ASSERT_EQ(avx2.theta.size(), avx512.theta.size());
    for (std::size_t i = 0; i < avx2.theta.size(); ++i) {
      ASSERT_EQ(avx2.theta[i], avx512.theta[i]) << "param " << i;
    }
    EXPECT_EQ(avx2.hf.final_heldout_loss, avx512.hf.final_heldout_loss);
  }
}

TEST(Equivalence, DistributedRunReportsCommunication) {
  const TrainerConfig cfg = config(3, Criterion::kCrossEntropy);
  const TrainOutcome out = train_distributed(cfg);
  // load_data p2p traffic plus sync_weights/gather collectives must both
  // be visible in the stats, mirroring the paper's Fig. 4/5 split.
  EXPECT_GT(out.comm.p2p_messages(), 0u);
  EXPECT_GT(out.comm.p2p_bytes(), 0u);
  EXPECT_GT(out.comm.collective_calls(), 0u);
  EXPECT_GT(out.comm.collective_bytes(), 0u);
}

TEST(Equivalence, WorkerCountDoesNotChangeResultEither) {
  // Different worker counts shard differently, so trajectories may differ
  // in float rounding — but both must train. (The paper's accuracy table
  // compares *convergence quality*, not bitwise states, across scales.)
  const TrainOutcome w2 =
      train_distributed(config(2, Criterion::kCrossEntropy));
  const TrainOutcome w4 =
      train_distributed(config(4, Criterion::kCrossEntropy));
  const double initial2 = w2.hf.iterations.front().heldout_before;
  const double initial4 = w4.hf.iterations.front().heldout_before;
  EXPECT_LT(w2.hf.final_heldout_loss, initial2);
  EXPECT_LT(w4.hf.final_heldout_loss, initial4);
  EXPECT_NEAR(w2.hf.final_heldout_loss, w4.hf.final_heldout_loss,
              0.25 * initial2);
}

}  // namespace
}  // namespace bgqhf::hf
