#include "speech/dataset.h"

#include <gtest/gtest.h>

#include "speech/source.h"

namespace bgqhf::speech {
namespace {

CorpusSpec spec() {
  CorpusSpec s;
  s.hours = 0.01;  // enough for several utterances
  s.feature_dim = 5;
  s.num_states = 3;
  s.mean_utt_seconds = 3.0;
  s.seed = 11;
  return s;
}

/// Every utterance of `corpus` behind the DataSource API, unsplit.
std::unique_ptr<DataSource> whole(Corpus corpus) {
  return make_in_memory_split(std::move(corpus), SourceOptions{}).train;
}

TEST(Dataset, FullDatasetCoversAllFrames) {
  const Corpus corpus = generate_corpus(spec());
  const std::unique_ptr<DataSource> source = whole(corpus);
  const Dataset ds = build_full_dataset(*source, nullptr, 1);
  EXPECT_EQ(ds.num_frames(), corpus.total_frames());
  EXPECT_EQ(ds.num_utterances(), corpus.utterances.size());
  EXPECT_EQ(ds.x.cols(), stacked_dim(corpus.feature_dim, 1));
}

TEST(Dataset, OffsetsPartitionFrames) {
  const Corpus corpus = generate_corpus(spec());
  const std::unique_ptr<DataSource> source = whole(corpus);
  const Dataset ds = build_full_dataset(*source, nullptr, 0);
  ASSERT_EQ(ds.offsets.front(), 0u);
  ASSERT_EQ(ds.offsets.back(), ds.num_frames());
  for (std::size_t u = 0; u < ds.num_utterances(); ++u) {
    EXPECT_EQ(ds.utt_frames(u), corpus.utterances[u].num_frames());
  }
}

TEST(Dataset, LabelsMatchSource) {
  const Corpus corpus = generate_corpus(spec());
  const std::unique_ptr<DataSource> source = whole(corpus);
  const Dataset ds = build_full_dataset(*source, nullptr, 0);
  for (std::size_t u = 0; u < ds.num_utterances(); ++u) {
    const auto labels = ds.utt_labels(u);
    ASSERT_EQ(labels.size(), corpus.utterances[u].labels.size());
    for (std::size_t t = 0; t < labels.size(); ++t) {
      EXPECT_EQ(labels[t], corpus.utterances[u].labels[t]);
    }
  }
}

TEST(Dataset, SubsetSelectsRequestedUtterances) {
  const Corpus corpus = generate_corpus(spec());
  const std::unique_ptr<DataSource> source = whole(corpus);
  ASSERT_GE(corpus.utterances.size(), 3u);
  const std::vector<std::size_t> indices{2, 0};
  const Dataset ds = build_dataset(*source, indices, nullptr, 0);
  EXPECT_EQ(ds.num_utterances(), 2u);
  EXPECT_EQ(ds.utt_frames(0), corpus.utterances[2].num_frames());
  EXPECT_EQ(ds.utt_frames(1), corpus.utterances[0].num_frames());
  // Content of the first selected utterance matches utterance 2.
  const auto x0 = ds.utt_x(0);
  for (std::size_t t = 0; t < x0.rows; ++t) {
    EXPECT_EQ(x0(t, 0), corpus.utterances[2].features(t, 0));
  }
}

TEST(Dataset, NormalizationApplied) {
  const Corpus corpus = generate_corpus(spec());
  const std::unique_ptr<DataSource> source = whole(corpus);
  const Normalizer norm = estimate_normalizer(*source);
  const Dataset raw = build_full_dataset(*source, nullptr, 0);
  const Dataset normalized = build_full_dataset(*source, &norm, 0);
  // Spot-check: normalized = (raw - mean) * inv_std.
  const float expected =
      (raw.x(0, 0) - norm.mean[0]) * norm.inv_std[0];
  EXPECT_FLOAT_EQ(normalized.x(0, 0), expected);
}

TEST(Dataset, ContextStackingExpandsColumns) {
  const Corpus corpus = generate_corpus(spec());
  const std::unique_ptr<DataSource> source = whole(corpus);
  const Dataset ds = build_full_dataset(*source, nullptr, 3);
  EXPECT_EQ(ds.x.cols(), corpus.feature_dim * 7);
}

TEST(Dataset, UttViewIsContiguousBlock) {
  const Corpus corpus = generate_corpus(spec());
  const std::unique_ptr<DataSource> source = whole(corpus);
  const Dataset ds = build_full_dataset(*source, nullptr, 0);
  if (ds.num_utterances() < 2) GTEST_SKIP();
  const auto x1 = ds.utt_x(1);
  EXPECT_EQ(x1.data, ds.x.data() + ds.offsets[1] * ds.x.cols());
}

TEST(Dataset, EmptySelection) {
  const Corpus corpus = generate_corpus(spec());
  const std::unique_ptr<DataSource> source = whole(corpus);
  const Dataset ds = build_dataset(*source, {}, nullptr, 0);
  EXPECT_EQ(ds.num_frames(), 0u);
  EXPECT_EQ(ds.num_utterances(), 0u);
}

}  // namespace
}  // namespace bgqhf::speech
