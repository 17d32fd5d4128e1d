// DataSource API: the in-memory and sharded implementations must be
// observationally identical — same split, same lengths, same partition,
// same staged datasets, bit for bit — and the prefetching reader must be
// deterministic under injected slow I/O.
#include <gtest/gtest.h>

#include <filesystem>

#include "speech/dataset.h"
#include "speech/source.h"
#include "speech/store/writer.h"
#include "util/config.h"

namespace bgqhf::speech {
namespace {

CorpusSpec small_spec() {
  CorpusSpec spec;
  spec.hours = 0.004;
  spec.feature_dim = 6;
  spec.num_states = 3;
  spec.mean_utt_seconds = 1.0;
  spec.seed = 977;
  return spec;
}

void expect_dataset_equal(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_frames(), b.num_frames());
  ASSERT_EQ(a.offsets, b.offsets);
  ASSERT_EQ(a.labels, b.labels);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    ASSERT_EQ(a.x.data()[i], b.x.data()[i]) << "x[" << i << "]";
  }
}

class SourceTest : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir() + "bgqhf_source_test";

  void SetUp() override {
    std::filesystem::remove_all(dir_);
    store::WriterOptions wopts;
    wopts.target_shard_bytes = 4096;  // several shards
    store::generate_sharded_corpus(small_spec(), dir_, wopts);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  SourceOptions split_options() {
    SourceOptions options;
    options.heldout_every_kth = 4;
    return options;
  }
};

TEST_F(SourceTest, ShardedMatchesInMemoryMetadata) {
  SourceSplit mem =
      make_in_memory_split(generate_corpus(small_spec()), split_options());
  SourceSplit sh = open_sharded_split(dir_, split_options());
  ASSERT_NE(sh.heldout, nullptr);
  EXPECT_EQ(sh.train->num_utterances(), mem.train->num_utterances());
  EXPECT_EQ(sh.heldout->num_utterances(), mem.heldout->num_utterances());
  EXPECT_EQ(sh.train->lengths(), mem.train->lengths());
  EXPECT_EQ(sh.heldout->lengths(), mem.heldout->lengths());
  EXPECT_EQ(sh.train->total_frames(), mem.train->total_frames());
  EXPECT_EQ(sh.train->feature_dim(), mem.train->feature_dim());
  EXPECT_EQ(sh.train->num_states(), mem.train->num_states());
}

TEST_F(SourceTest, PartitionComputedFromIndexMatchesInMemory) {
  SourceSplit mem =
      make_in_memory_split(generate_corpus(small_spec()), split_options());
  SourceSplit sh = open_sharded_split(dir_, split_options());
  for (const std::size_t workers : {1u, 2u, 3u}) {
    const Partition a = mem.train->partition(workers);
    const Partition b = sh.train->partition(workers);
    EXPECT_EQ(a.assignment, b.assignment) << workers << " workers";
  }
  EXPECT_EQ(mem.heldout->partition(2).assignment,
            sh.heldout->partition(2).assignment);
}

TEST_F(SourceTest, ForEachVisitsIdenticalUtterances) {
  SourceSplit mem =
      make_in_memory_split(generate_corpus(small_spec()), split_options());
  SourceSplit sh = open_sharded_split(dir_, split_options());
  std::vector<Utterance> a;
  mem.train->visit([&](const Utterance& utt) { a.push_back(utt); });
  std::vector<Utterance> b;
  sh.train->visit([&](const Utterance& utt) { b.push_back(utt); });
  ASSERT_EQ(a.size(), mem.train->num_utterances());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    EXPECT_EQ(a[u].id, b[u].id);
    EXPECT_EQ(a[u].speaker, b[u].speaker);
    ASSERT_EQ(a[u].labels, b[u].labels);
    for (std::size_t i = 0; i < a[u].features.size(); ++i) {
      ASSERT_EQ(a[u].features.data()[i], b[u].features.data()[i]);
    }
  }
  const std::vector<std::size_t> past_end{a.size()};
  for (DataSource* source : {mem.train.get(), sh.train.get()}) {
    EXPECT_THROW(source->for_each(past_end, [](const Utterance&) {}),
                 std::out_of_range);
  }
}

TEST_F(SourceTest, NormalizerBitwiseEqualAcrossSources) {
  SourceSplit mem =
      make_in_memory_split(generate_corpus(small_spec()), split_options());
  SourceSplit sh = open_sharded_split(dir_, split_options());
  const Normalizer a = estimate_normalizer(*mem.train);
  const Normalizer b = estimate_normalizer(*sh.train);
  ASSERT_EQ(a.mean.size(), b.mean.size());
  for (std::size_t c = 0; c < a.mean.size(); ++c) {
    EXPECT_EQ(a.mean[c], b.mean[c]);
    EXPECT_EQ(a.inv_std[c], b.inv_std[c]);
  }
}

TEST_F(SourceTest, DatasetsBitwiseEqualAcrossSources) {
  SourceSplit mem =
      make_in_memory_split(generate_corpus(small_spec()), split_options());
  SourceSplit sh = open_sharded_split(dir_, split_options());
  const Normalizer norm = estimate_normalizer(*mem.train);
  const Partition part = mem.train->partition(2);
  for (std::size_t w = 0; w < 2; ++w) {
    Dataset a = build_dataset(*mem.train, part.assignment[w], &norm, 2);
    Dataset b = build_dataset(*sh.train, part.assignment[w], &norm, 2);
    expect_dataset_equal(a, b);
  }
  Dataset ha = build_full_dataset(*mem.heldout, &norm, 2);
  Dataset hb = build_full_dataset(*sh.heldout, &norm, 2);
  expect_dataset_equal(ha, hb);
}

TEST_F(SourceTest, BothFactoriesHoldOutEveryKthOrdinal) {
  const Corpus corpus = generate_corpus(small_spec());
  const auto ids = [](DataSource& source) {
    std::vector<std::uint64_t> out;
    source.visit([&](const Utterance& utt) { out.push_back(utt.id); });
    return out;
  };
  for (const std::size_t k : {2u, 3u, 5u}) {
    std::vector<std::uint64_t> train;
    std::vector<std::uint64_t> held;
    for (std::size_t i = 0; i < corpus.utterances.size(); ++i) {
      (i % k == k - 1 ? held : train).push_back(corpus.utterances[i].id);
    }
    ASSERT_FALSE(held.empty()) << "k=" << k;
    SourceOptions options;
    options.heldout_every_kth = k;
    SourceSplit mem = make_in_memory_split(corpus, options);
    SourceSplit sh = open_sharded_split(dir_, options);
    for (SourceSplit* split : {&mem, &sh}) {
      EXPECT_EQ(ids(*split->train), train) << "k=" << k;
      EXPECT_EQ(ids(*split->heldout), held) << "k=" << k;
    }
  }
  SourceOptions bad;
  bad.heldout_every_kth = 1;
  EXPECT_THROW(make_in_memory_split(corpus, bad), std::invalid_argument);
  EXPECT_THROW(open_sharded_split(dir_, bad), std::invalid_argument);
}

TEST_F(SourceTest, HeldoutShardsBalanceFrames) {
  // ce_long_utts' corpus lengths (0.12 h of log-normal ~5 s utterances;
  // every 5th, 17 of them, held out) over 4 ranks. Equal-count held-out
  // shards read max/mean frames 1.50 (seed 1) and 1.45 (seed 1009);
  // frame-balanced ones 1.022 and 1.019.
  for (const std::uint64_t seed : {1u, 1009u}) {
    CorpusSpec spec = small_spec();
    spec.hours = 0.12;
    spec.mean_utt_seconds = 5.0;
    spec.seed = seed;
    const Corpus corpus = generate_corpus(spec);
    SourceOptions options;
    options.heldout_every_kth = 5;
    const SourceSplit split = make_in_memory_split(corpus, options);
    const std::vector<std::size_t>& lengths = split.heldout->lengths();
    const Partition balanced = split.heldout->partition(4);
    EXPECT_LT(balanced.imbalance(lengths), 1.05) << "seed " << seed;

    options.partition = PartitionStrategy::kNaiveEqualCount;
    const SourceSplit naive = make_in_memory_split(corpus, options);
    EXPECT_GT(naive.heldout->partition(4).imbalance(lengths), 1.4)
        << "seed " << seed;
  }
}

TEST_F(SourceTest, NoSplitYieldsNullHeldout) {
  SourceOptions options;  // heldout_every_kth = 0
  SourceSplit split = open_sharded_split(dir_, options);
  EXPECT_EQ(split.heldout, nullptr);
  const store::CorpusIndex index =
      store::load_index(store::index_path(dir_));
  EXPECT_EQ(split.train->num_utterances(), index.num_utterances());
}

TEST_F(SourceTest, MissingStoreThrowsTypedError) {
  try {
    open_sharded_split(dir_ + "_nowhere", split_options());
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_EQ(e.fault(), DataFault::kIo);
  }
}

TEST_F(SourceTest, PrefetchDeterministicUnderInjectedSlowIo) {
  // Two passes with the seeded slow-I/O hook armed: identical bytes, and
  // the second pass's prefetcher must hide most of the injected latency.
  auto run = [&](bool prefetch) {
    SourceOptions options = split_options();
    options.prefetch = prefetch;
    options.prefetch_depth = 2;
    options.io_fault.delay_ms = 1.0;
    options.io_fault.seed = 42;
    SourceSplit split = open_sharded_split(dir_, options);
    std::vector<std::uint64_t> ids;
    std::vector<int> labels;
    split.train->visit([&](const Utterance& utt) {
      ids.push_back(utt.id);
      labels.insert(labels.end(), utt.labels.begin(), utt.labels.end());
    });
    return std::make_pair(ids, labels);
  };
  const auto sync1 = run(false);
  const auto sync2 = run(false);
  const auto pre1 = run(true);
  const auto pre2 = run(true);
  EXPECT_EQ(sync1, sync2);
  EXPECT_EQ(sync1, pre1);
  EXPECT_EQ(pre1, pre2);
}

TEST_F(SourceTest, CacheStatsAccountHitsAndMisses) {
  SourceOptions options;  // no split: one source owns the cache
  options.prefetch = false;
  SourceSplit split = open_sharded_split(dir_, options);
  auto& source = static_cast<ShardedSource&>(*split.train);
  ASSERT_GT(source.cache().num_shards(), 1u);
  split.train->visit([](const Utterance&) {});
  const store::CacheStats after1 = source.cache_stats();
  EXPECT_EQ(after1.hits + after1.misses, source.cache().num_shards());
  EXPECT_EQ(after1.shards_loaded, after1.misses);
  EXPECT_GT(after1.bytes_loaded, 0u);
  // A second sweep re-misses all but the cached tail (capacity depth+1).
  split.train->visit([](const Utterance&) {});
  const store::CacheStats after2 = source.cache_stats();
  EXPECT_GT(after2.misses, after1.misses);
}

TEST_F(SourceTest, StoreConfigReadsInjectedEnv) {
  util::RuntimeEnv env;
  env.data_dir = dir_;
  env.prefetch_depth = 7;
  util::RuntimeEnv::set_for_tests(env);
  const StoreConfig config = StoreConfig::from_env();
  EXPECT_EQ(config.data_dir, dir_);
  EXPECT_EQ(config.prefetch_depth, 7u);
  util::RuntimeEnv::reset_for_tests();
  const StoreConfig fallback = StoreConfig::from_env();
  EXPECT_EQ(fallback.prefetch_depth, 2u);  // 0 keeps the default
  util::RuntimeEnv::reset_for_tests();
}

}  // namespace
}  // namespace bgqhf::speech
