#include "speech/corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace bgqhf::speech {
namespace {

CorpusSpec small_spec() {
  CorpusSpec spec;
  spec.hours = 0.003;  // ~1080 frames
  spec.feature_dim = 8;
  spec.num_states = 4;
  spec.mean_utt_seconds = 2.0;
  spec.seed = 77;
  return spec;
}

TEST(Corpus, TotalFramesApproximatesSpec) {
  const CorpusSpec spec = small_spec();
  const Corpus corpus = generate_corpus(spec);
  const std::size_t target = spec_total_frames(spec);
  EXPECT_GE(corpus.total_frames(), target);
  // Overshoot bounded by one utterance.
  EXPECT_LT(corpus.total_frames(), target + 10000);
}

TEST(Corpus, DeterministicInSeed) {
  const Corpus a = generate_corpus(small_spec());
  const Corpus b = generate_corpus(small_spec());
  ASSERT_EQ(a.utterances.size(), b.utterances.size());
  for (std::size_t u = 0; u < a.utterances.size(); ++u) {
    ASSERT_EQ(a.utterances[u].num_frames(), b.utterances[u].num_frames());
    EXPECT_EQ(a.utterances[u].labels, b.utterances[u].labels);
    for (std::size_t t = 0; t < a.utterances[u].num_frames(); ++t) {
      for (std::size_t d = 0; d < a.feature_dim; ++d) {
        ASSERT_EQ(a.utterances[u].features(t, d),
                  b.utterances[u].features(t, d));
      }
    }
  }
}

TEST(Corpus, DifferentSeedsDiffer) {
  CorpusSpec s1 = small_spec();
  CorpusSpec s2 = small_spec();
  s2.seed = 78;
  const Corpus a = generate_corpus(s1);
  const Corpus b = generate_corpus(s2);
  // At minimum the first utterance's first frame should differ.
  bool any_diff = a.utterances.size() != b.utterances.size();
  if (!any_diff) {
    any_diff = a.utterances[0].features(0, 0) != b.utterances[0].features(0, 0);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Corpus, UtteranceLengthsVary) {
  const Corpus corpus = generate_corpus(small_spec());
  std::set<std::size_t> lengths;
  for (const auto& u : corpus.utterances) lengths.insert(u.num_frames());
  // The load-balancing problem requires heterogeneous lengths.
  EXPECT_GT(lengths.size(), 1u);
}

TEST(Corpus, LabelsInRange) {
  const Corpus corpus = generate_corpus(small_spec());
  for (const auto& u : corpus.utterances) {
    for (const int label : u.labels) {
      EXPECT_GE(label, 0);
      EXPECT_LT(label, static_cast<int>(corpus.num_states));
    }
  }
}

TEST(Corpus, LabelsFollowLeftToRightStructure) {
  // Consecutive labels either stay or advance by one (mod S) — the dwell
  // process the transition model mirrors.
  const Corpus corpus = generate_corpus(small_spec());
  const int S = static_cast<int>(corpus.num_states);
  for (const auto& u : corpus.utterances) {
    for (std::size_t t = 1; t < u.labels.size(); ++t) {
      const int prev = u.labels[t - 1];
      const int cur = u.labels[t];
      EXPECT_TRUE(cur == prev || cur == (prev + 1) % S)
          << "t=" << t << " prev=" << prev << " cur=" << cur;
    }
  }
}

TEST(Corpus, AllStatesAppear) {
  CorpusSpec spec = small_spec();
  spec.hours = 0.01;
  const Corpus corpus = generate_corpus(spec);
  std::set<int> seen;
  for (const auto& u : corpus.utterances) {
    seen.insert(u.labels.begin(), u.labels.end());
  }
  EXPECT_EQ(seen.size(), spec.num_states);
}

TEST(Corpus, FeaturesCarryClassSignal) {
  // Frames of the same state must be closer to their state's empirical
  // mean than to other states' means — otherwise the DNN task is noise.
  CorpusSpec spec = small_spec();
  spec.noise_stddev = 0.2;
  const Corpus corpus = generate_corpus(spec);
  std::vector<std::vector<double>> mean(spec.num_states,
                                        std::vector<double>(spec.feature_dim));
  std::vector<std::size_t> count(spec.num_states, 0);
  for (const auto& u : corpus.utterances) {
    for (std::size_t t = 0; t < u.num_frames(); ++t) {
      const auto s = static_cast<std::size_t>(u.labels[t]);
      for (std::size_t d = 0; d < spec.feature_dim; ++d) {
        mean[s][d] += u.features(t, d);
      }
      count[s]++;
    }
  }
  for (std::size_t s = 0; s < spec.num_states; ++s) {
    ASSERT_GT(count[s], 0u);
    for (auto& v : mean[s]) v /= static_cast<double>(count[s]);
  }
  // Mean separation between distinct states should dominate noise.
  double min_sep = 1e9;
  for (std::size_t a = 0; a < spec.num_states; ++a) {
    for (std::size_t b = a + 1; b < spec.num_states; ++b) {
      double d2 = 0;
      for (std::size_t d = 0; d < spec.feature_dim; ++d) {
        const double diff = mean[a][d] - mean[b][d];
        d2 += diff * diff;
      }
      min_sep = std::min(min_sep, std::sqrt(d2));
    }
  }
  EXPECT_GT(min_sep, 3.0 * spec.noise_stddev);
}

TEST(Corpus, InvalidSpecRejected) {
  CorpusSpec spec = small_spec();
  spec.num_states = 0;
  EXPECT_THROW(generate_corpus(spec), std::invalid_argument);
}

TEST(Corpus, HoursScalesFrameCount) {
  CorpusSpec s1 = small_spec();
  CorpusSpec s2 = small_spec();
  s2.hours = 2 * s1.hours;
  const auto f1 = generate_corpus(s1).total_frames();
  const auto f2 = generate_corpus(s2).total_frames();
  EXPECT_NEAR(static_cast<double>(f2) / static_cast<double>(f1), 2.0, 0.2);
}

}  // namespace
}  // namespace bgqhf::speech

namespace bgqhf::speech {
namespace {

class CorpusSweepTest
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(CorpusSweepTest, InvariantsHoldAcrossSpecs) {
  const auto [sigma, states] = GetParam();
  CorpusSpec spec;
  spec.hours = 0.004;
  spec.feature_dim = 6;
  spec.num_states = states;
  spec.log_sigma = sigma;
  spec.mean_utt_seconds = 2.0;
  spec.seed = 1000 + static_cast<std::uint64_t>(sigma * 10) + states;
  const Corpus corpus = generate_corpus(spec);
  // Frame budget met, labels valid, lengths positive, everywhere.
  EXPECT_GE(corpus.total_frames(), spec_total_frames(spec));
  for (const auto& u : corpus.utterances) {
    EXPECT_GT(u.num_frames(), 0u);
    EXPECT_EQ(u.labels.size(), u.num_frames());
    EXPECT_EQ(u.feature_dim(), spec.feature_dim);
    for (const int label : u.labels) {
      EXPECT_GE(label, 0);
      EXPECT_LT(label, static_cast<int>(states));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, CorpusSweepTest,
    ::testing::Combine(::testing::Values(0.2, 0.6, 1.1),
                       ::testing::Values(std::size_t{2}, std::size_t{5},
                                         std::size_t{11})));

TEST(CorpusSweep, HigherSigmaSpreadsLengthsMore) {
  auto length_cv = [](double sigma) {
    CorpusSpec spec;
    spec.hours = 0.05;
    spec.feature_dim = 2;
    spec.num_states = 2;
    spec.log_sigma = sigma;
    spec.seed = 500;
    const Corpus corpus = generate_corpus(spec);
    double sum = 0, sumsq = 0;
    for (const auto& u : corpus.utterances) {
      sum += static_cast<double>(u.num_frames());
      sumsq += static_cast<double>(u.num_frames()) * u.num_frames();
    }
    const double n = static_cast<double>(corpus.utterances.size());
    const double mean = sum / n;
    return std::sqrt(std::max(0.0, sumsq / n - mean * mean)) / mean;
  };
  EXPECT_LT(length_cv(0.2), length_cv(0.9));
}

}  // namespace
}  // namespace bgqhf::speech
