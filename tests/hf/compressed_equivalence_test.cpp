// The compressed-aggregation counterpart of equivalence_test.cpp: lossy
// codecs change the trajectory (bounded divergence, checked on the final
// loss), but they must NOT change it differently in serial vs distributed
// runs — the per-(slot, segment) error-feedback mirror keeps compressed
// serial == compressed distributed bitwise.
#include <gtest/gtest.h>

#include "hf/distributed_sgd.h"
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

// The test layers are tiny, so drop the raw-passthrough floor to force
// real codec traffic through every segment.
AggregationOptions compressed(simmpi::CompressMode mode) {
  AggregationOptions agg;
  agg.compress.mode = mode;
  agg.compress.topk_fraction = 0.25;
  agg.compress.min_values = 1;
  return agg;
}

void expect_bitwise_equal(const TrainOutcome& a, const TrainOutcome& b) {
  ASSERT_EQ(a.theta.size(), b.theta.size());
  for (std::size_t i = 0; i < a.theta.size(); ++i) {
    ASSERT_EQ(a.theta[i], b.theta[i]) << "param " << i;
  }
  ASSERT_EQ(a.hf.iterations.size(), b.hf.iterations.size());
  for (std::size_t i = 0; i < a.hf.iterations.size(); ++i) {
    EXPECT_EQ(a.hf.iterations[i].train_loss, b.hf.iterations[i].train_loss)
        << "iter " << i;
    EXPECT_EQ(a.hf.iterations[i].heldout_after,
              b.hf.iterations[i].heldout_after)
        << "iter " << i;
  }
}

class CompressedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(CompressedEquivalenceTest, TopkSerialBitwiseEqualsDistributed) {
  TrainerConfig cfg = config(GetParam(), Criterion::kCrossEntropy);
  cfg.aggregation = compressed(simmpi::CompressMode::kTopK);
  expect_bitwise_equal(train_serial(cfg), train_distributed(cfg));
}

TEST_P(CompressedEquivalenceTest, Bf16DenseSerialBitwiseEqualsDistributed) {
  // BGQHF_PRECISION=bf16 payloads: dense bf16 bodies with the rounding
  // error fed back. The serial mirror runs the same codec, so the
  // trajectory still matches bitwise.
  TrainerConfig cfg = config(GetParam(), Criterion::kCrossEntropy);
  cfg.aggregation = compressed(simmpi::CompressMode::kBf16);
  expect_bitwise_equal(train_serial(cfg), train_distributed(cfg));
}

TEST_P(CompressedEquivalenceTest, Bf16TopkComposedSerialEqualsDistributed) {
  // topk selection + bf16 value streams (kTopK16 bodies): both loss
  // sources land in the same error-feedback carrier, and serial ==
  // distributed must survive the composition.
  TrainerConfig cfg = config(GetParam(), Criterion::kCrossEntropy);
  cfg.aggregation = compressed(simmpi::CompressMode::kTopK);
  cfg.aggregation.compress.bf16_wire = true;
  expect_bitwise_equal(train_serial(cfg), train_distributed(cfg));
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, CompressedEquivalenceTest,
                         ::testing::Values(1, 2, 3));

TEST(CompressedEquivalence, CompressedTrainingStillConverges) {
  // Bounded divergence: error feedback makes the lossy runs track the
  // exact one — same qualitative convergence, final held-out loss in the
  // same neighbourhood.
  const TrainerConfig exact_cfg = config(2, Criterion::kCrossEntropy);
  const TrainOutcome exact = train_distributed(exact_cfg);
  const double initial = exact.hf.iterations.front().heldout_before;
  for (const auto mode :
       {simmpi::CompressMode::kTopK, simmpi::CompressMode::kBf16}) {
    TrainerConfig cfg = exact_cfg;
    cfg.aggregation = compressed(mode);
    const TrainOutcome lossy = train_distributed(cfg);
    EXPECT_LT(lossy.hf.final_heldout_loss, initial)
        << simmpi::to_string(mode);
    EXPECT_NEAR(lossy.hf.final_heldout_loss, exact.hf.final_heldout_loss,
                0.25 * initial)
        << simmpi::to_string(mode);
  }
}

TEST(CompressedEquivalence, PreconditionerSquaresPathAlsoMirrors) {
  // gradient_with_squares reduces two vectors per iteration (gradient +
  // squared gradient), each with its own segment states; both must fold
  // identically in serial and distributed runs.
  TrainerConfig cfg = config(2, Criterion::kCrossEntropy);
  cfg.hf.use_preconditioner = true;
  cfg.aggregation = compressed(simmpi::CompressMode::kTopK);
  expect_bitwise_equal(train_serial(cfg), train_distributed(cfg));
}

TEST(CompressedEquivalence, SequenceCriterionAlsoMirrors) {
  TrainerConfig cfg = config(2, Criterion::kSequence);
  cfg.aggregation = compressed(simmpi::CompressMode::kTopK);
  expect_bitwise_equal(train_serial(cfg), train_distributed(cfg));
}

TEST(CompressedEquivalence, CompressedSgdStillLearns) {
  TrainerConfig cfg;
  cfg.workers = 2;
  cfg.corpus.hours = 0.004;
  cfg.corpus.feature_dim = 8;
  cfg.corpus.num_states = 4;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = 141;
  cfg.context = 1;
  cfg.hidden = {12};
  cfg.heldout_every_kth = 4;
  cfg.aggregation = compressed(simmpi::CompressMode::kTopK);
  // The parameter vector is tiny here; keep the target sparse enough that
  // index+value pairs still undercut the raw payload.
  cfg.aggregation.compress.topk_fraction = 0.05;
  SgdOptions opts;
  opts.epochs = 4;
  opts.batch_frames = 64;
  const DistributedSgdOutcome out = train_sgd_distributed(cfg, opts);
  ASSERT_EQ(out.sgd.epochs.size(), 4u);
  EXPECT_LT(out.sgd.epochs.back().heldout_loss,
            out.sgd.epochs.front().heldout_loss);
  // The per-update allreduce moved fewer bytes than the raw parameter
  // vector would have.
  std::size_t raw = 0;
  std::size_t wire = 0;
  const auto op = out.comm.op(simmpi::CollOp::kAllreduce);
  raw = op.bytes;
  wire = op.wire_bytes;
  EXPECT_GT(raw, 0u);
  EXPECT_LT(wire, raw);
}

TEST(Bf16Wire, ShrinksSgdTrafficAloneAndComposedWithTopk) {
  // The bf16 bodies are a wire-format change, not an algorithm change, so
  // they compose with any mode: dense bf16 roughly halves the exact
  // payload, and switching a top-k run's value stream to bf16 strictly
  // undercuts the same run with fp32 values — while still learning.
  TrainerConfig cfg;
  cfg.workers = 2;
  cfg.corpus.hours = 0.004;
  cfg.corpus.feature_dim = 8;
  cfg.corpus.num_states = 4;
  cfg.corpus.mean_utt_seconds = 1.0;
  cfg.corpus.seed = 141;
  cfg.context = 1;
  cfg.hidden = {12};
  cfg.heldout_every_kth = 4;
  SgdOptions opts;
  opts.epochs = 2;
  opts.batch_frames = 64;

  const auto wire_of = [&](simmpi::CompressMode mode, bool bf16) {
    TrainerConfig c = cfg;
    c.aggregation = compressed(mode);
    c.aggregation.compress.topk_fraction = 0.25;
    c.aggregation.compress.bf16_wire = bf16;
    const DistributedSgdOutcome out = train_sgd_distributed(c, opts);
    EXPECT_LT(out.sgd.epochs.back().heldout_loss,
              out.sgd.epochs.front().heldout_loss)
        << simmpi::to_string(mode) << " bf16=" << bf16;
    const auto op = out.comm.op(simmpi::CollOp::kAllreduce);
    EXPECT_GT(op.bytes, 0u);
    return std::pair<std::size_t, std::size_t>{op.wire_bytes, op.bytes};
  };

  // Allreduce wire accounting covers both directions (uplink + downlink),
  // so the exact baseline moves 2x the logical bytes; dense bf16 halves
  // each direction (~n u16 + header per blob).
  const auto [dense16, raw] = wire_of(simmpi::CompressMode::kBf16, false);
  EXPECT_LT(dense16, 2 * raw * 3 / 5);  // ~2x reduction, header slack
  const auto [topk32, raw32] = wire_of(simmpi::CompressMode::kTopK, false);
  const auto [topk16, raw16] = wire_of(simmpi::CompressMode::kTopK, true);
  ASSERT_EQ(raw32, raw16);  // same run, same logical traffic
  EXPECT_LT(topk16, topk32);
}

TEST(AggregationConfig, DefaultIsExactUnlessEnvSaysOtherwise) {
  // The default TrainerConfig takes the bitwise-exact path unless the
  // environment resolves a codec: BGQHF_COMPRESS, or BGQHF_PRECISION=bf16
  // (bf16 wire bodies). Under a plain environment both sides are false.
  const TrainerConfig cfg;
  EXPECT_EQ(cfg.aggregation.active(),
            simmpi::CompressOptions::from_env().active());
}

}  // namespace
}  // namespace bgqhf::hf
