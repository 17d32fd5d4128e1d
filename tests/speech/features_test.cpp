#include "speech/features.h"

#include <gtest/gtest.h>

#include <cmath>

#include "speech/corpus.h"
#include "speech/source.h"

namespace bgqhf::speech {
namespace {

/// Every utterance of `corpus` behind the DataSource API, unsplit.
std::unique_ptr<DataSource> whole(Corpus corpus) {
  return make_in_memory_split(std::move(corpus), SourceOptions{}).train;
}

TEST(Features, StackedDimFormula) {
  EXPECT_EQ(stacked_dim(40, 0), 40u);
  EXPECT_EQ(stacked_dim(40, 4), 360u);
  EXPECT_EQ(stacked_dim(20, 5), 220u);
}

TEST(Features, StackZeroContextIsIdentity) {
  blas::Matrix<float> f(3, 2);
  f(0, 0) = 1;
  f(2, 1) = 5;
  const auto out = stack_context(f.view(), 0);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 2u);
  EXPECT_EQ(out(0, 0), 1.0f);
  EXPECT_EQ(out(2, 1), 5.0f);
}

TEST(Features, StackCenterColumnHoldsCurrentFrame) {
  blas::Matrix<float> f(5, 3);
  for (std::size_t t = 0; t < 5; ++t) {
    for (std::size_t d = 0; d < 3; ++d) {
      f(t, d) = static_cast<float>(t * 10 + d);
    }
  }
  const std::size_t context = 2;
  const auto out = stack_context(f.view(), context);
  EXPECT_EQ(out.cols(), 15u);
  for (std::size_t t = 0; t < 5; ++t) {
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(out(t, context * 3 + d), f(t, d));
    }
  }
}

TEST(Features, StackEdgesClampToBoundary) {
  blas::Matrix<float> f(3, 1);
  f(0, 0) = 10;
  f(1, 0) = 20;
  f(2, 0) = 30;
  const auto out = stack_context(f.view(), 2);
  // Frame 0's window is [clamp(-2), clamp(-1), 0, 1, 2] = [10,10,10,20,30].
  EXPECT_EQ(out(0, 0), 10.0f);
  EXPECT_EQ(out(0, 1), 10.0f);
  EXPECT_EQ(out(0, 2), 10.0f);
  EXPECT_EQ(out(0, 3), 20.0f);
  EXPECT_EQ(out(0, 4), 30.0f);
  // Frame 2's window clamps on the right.
  EXPECT_EQ(out(2, 3), 30.0f);
  EXPECT_EQ(out(2, 4), 30.0f);
}

TEST(Features, NormalizerZeroMeanUnitVariance) {
  CorpusSpec spec;
  spec.hours = 0.004;
  spec.feature_dim = 6;
  spec.num_states = 3;
  spec.seed = 9;
  Corpus corpus = generate_corpus(spec);
  const Normalizer norm = estimate_normalizer(*whole(corpus));
  // Apply to the whole corpus and re-estimate: should be ~N(0, 1).
  for (auto& u : corpus.utterances) norm.apply(u.features.view());
  const Normalizer renorm = estimate_normalizer(*whole(corpus));
  for (std::size_t d = 0; d < spec.feature_dim; ++d) {
    EXPECT_NEAR(renorm.mean[d], 0.0f, 1e-3f);
    EXPECT_NEAR(renorm.inv_std[d], 1.0f, 1e-2f);
  }
}

TEST(Features, NormalizerDimensionMismatchThrows) {
  Normalizer norm;
  norm.mean = {0.0f};
  norm.inv_std = {1.0f};
  blas::Matrix<float> m(2, 3);
  auto view = m.view();
  EXPECT_THROW(norm.apply(view), std::invalid_argument);
}

TEST(Features, EmptyCorpusNormalizerThrows) {
  Corpus corpus;
  corpus.feature_dim = 4;
  EXPECT_THROW(estimate_normalizer(*whole(corpus)), std::invalid_argument);
}

TEST(Features, ConstantDimensionDoesNotBlowUp) {
  Corpus corpus;
  corpus.feature_dim = 1;
  corpus.num_states = 1;
  Utterance u;
  u.features = blas::Matrix<float>(10, 1);
  u.features.fill(3.0f);  // zero variance
  u.labels.assign(10, 0);
  corpus.utterances.push_back(std::move(u));
  const Normalizer norm = estimate_normalizer(*whole(std::move(corpus)));
  EXPECT_TRUE(std::isfinite(norm.inv_std[0]));
}

}  // namespace
}  // namespace bgqhf::speech
