// Sharded store: format round-trips, decoder rejection of damaged bytes,
// and streaming generation equivalence.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "speech/corpus.h"
#include "speech/store/format.h"
#include "speech/store/prefetch.h"
#include "speech/store/reader.h"
#include "speech/store/writer.h"

namespace bgqhf::speech::store {
namespace {

CorpusSpec small_spec() {
  CorpusSpec spec;
  spec.hours = 0.003;
  spec.feature_dim = 6;
  spec.num_states = 3;
  spec.mean_utt_seconds = 1.0;
  spec.seed = 131;
  return spec;
}

void expect_equal(const Utterance& a, const Utterance& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.speaker, b.speaker);
  ASSERT_EQ(a.num_frames(), b.num_frames());
  EXPECT_EQ(a.labels, b.labels);
  for (std::size_t i = 0; i < a.features.size(); ++i) {
    ASSERT_EQ(a.features.data()[i], b.features.data()[i]) << "float " << i;
  }
}

class StoreTest : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir() + "bgqhf_store_test";
  void SetUp() override { std::filesystem::remove_all(dir_); }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Corrupt the store's first shard at byte `offset` (xor with 0xFF).
  void flip_byte(std::size_t offset) {
    const CorpusIndex index = load_index(index_path(dir_));
    const std::string path = dir_ + "/" + index.shard_files.at(0);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    f.seekp(static_cast<std::streamoff>(offset));
    c = static_cast<char>(c ^ 0xFF);
    f.write(&c, 1);
  }
};

TEST_F(StoreTest, RoundTripPreservesEverything) {
  const Corpus corpus = generate_corpus(small_spec());
  WriterOptions wopts;
  wopts.target_shard_bytes = 4096;  // force several shards
  const CorpusIndex index = generate_sharded_corpus(small_spec(), dir_, wopts);
  EXPECT_GT(index.shard_files.size(), 1u);
  ASSERT_EQ(index.num_utterances(), corpus.utterances.size());
  EXPECT_EQ(index.total_frames(), corpus.total_frames());

  const CorpusIndex loaded = load_index(index_path(dir_));
  ASSERT_EQ(loaded.num_utterances(), corpus.utterances.size());
  EXPECT_EQ(loaded.feature_dim, corpus.feature_dim);
  EXPECT_EQ(loaded.num_states, corpus.num_states);

  std::vector<MappedShard> shards;
  for (const auto& name : loaded.shard_files) {
    shards.emplace_back(dir_ + "/" + name, loaded.feature_dim,
                        loaded.num_states);
  }
  for (std::size_t u = 0; u < loaded.entries.size(); ++u) {
    const IndexEntry& e = loaded.entries[u];
    const Utterance utt = shards.at(e.shard).read_at(e.offset, &e);
    expect_equal(corpus.utterances[u], utt);
  }
}

TEST_F(StoreTest, IndexAloneCarriesLengths) {
  const Corpus corpus = generate_corpus(small_spec());
  generate_sharded_corpus(small_spec(), dir_);
  const CorpusIndex index = load_index(index_path(dir_));
  const std::vector<std::size_t> lengths = index.lengths();
  ASSERT_EQ(lengths.size(), corpus.utterances.size());
  for (std::size_t u = 0; u < lengths.size(); ++u) {
    EXPECT_EQ(lengths[u], corpus.utterances[u].num_frames());
  }
}

TEST_F(StoreTest, StreamingGenerationMatchesBatch) {
  const CorpusSpec spec = small_spec();
  const Corpus batch = generate_corpus(spec);
  CorpusGenerator gen(spec);
  std::size_t n = 0;
  while (auto utt = gen.next()) {
    ASSERT_LT(n, batch.utterances.size());
    expect_equal(batch.utterances[n], *utt);
    ++n;
  }
  EXPECT_EQ(n, batch.utterances.size());
  // And the store written by streaming generation indexes the same
  // utterances.
  generate_sharded_corpus(spec, dir_);
  const CorpusIndex index = load_index(index_path(dir_));
  EXPECT_EQ(index.num_utterances(), batch.utterances.size());
  EXPECT_EQ(index.total_frames(), batch.total_frames());
}

TEST_F(StoreTest, TruncatedShardRejected) {
  generate_sharded_corpus(small_spec(), dir_);
  const CorpusIndex index = load_index(index_path(dir_));
  const std::string path = dir_ + "/" + index.shard_files.at(0);
  std::filesystem::resize_file(
      path, std::filesystem::file_size(path) - 32);
  MappedShard shard(path, index.feature_dim, index.num_states);
  // The last record's frame now runs past the file.
  const IndexEntry& last = index.entries.back();
  try {
    shard.read_at(last.offset, &last);
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_EQ(e.fault(), DataFault::kCorrupt);
  }
}

TEST_F(StoreTest, CorruptPayloadRejectedByCrc) {
  generate_sharded_corpus(small_spec(), dir_);
  const CorpusIndex index = load_index(index_path(dir_));
  const IndexEntry& first = index.entries.front();
  // Flip a feature byte well inside the first record's payload.
  flip_byte(first.offset + 32);
  MappedShard shard(dir_ + "/" + index.shard_files.at(0), index.feature_dim,
                    index.num_states);
  try {
    shard.read_at(first.offset, &first);
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_EQ(e.fault(), DataFault::kCorrupt);
  }
}

TEST_F(StoreTest, BadMagicRejected) {
  generate_sharded_corpus(small_spec(), dir_);
  flip_byte(0);
  const CorpusIndex index = load_index(index_path(dir_));
  try {
    MappedShard shard(dir_ + "/" + index.shard_files.at(0),
                      index.feature_dim, index.num_states);
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_EQ(e.fault(), DataFault::kBadMagic);
  }
}

TEST_F(StoreTest, BadVersionRejected) {
  generate_sharded_corpus(small_spec(), dir_);
  flip_byte(8);  // u32 version field
  const CorpusIndex index = load_index(index_path(dir_));
  try {
    MappedShard shard(dir_ + "/" + index.shard_files.at(0),
                      index.feature_dim, index.num_states);
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_EQ(e.fault(), DataFault::kBadVersion);
  }
}

TEST_F(StoreTest, ShapeMismatchRejected) {
  generate_sharded_corpus(small_spec(), dir_);
  const CorpusIndex index = load_index(index_path(dir_));
  try {
    MappedShard shard(dir_ + "/" + index.shard_files.at(0),
                      index.feature_dim + 1, index.num_states);
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_EQ(e.fault(), DataFault::kShapeMismatch);
  }
}

TEST_F(StoreTest, MislabelledBlobRejected) {
  // A record whose declared payload size disagrees with the shape implied
  // by its own frame count: flip a byte of the u32 payload_bytes field.
  generate_sharded_corpus(small_spec(), dir_);
  const CorpusIndex index = load_index(index_path(dir_));
  const IndexEntry& first = index.entries.front();
  flip_byte(first.offset + 1);  // payload_bytes, second byte
  MappedShard shard(dir_ + "/" + index.shard_files.at(0), index.feature_dim,
                    index.num_states);
  try {
    shard.read_at(first.offset, &first);
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    // Either shape mismatch (size disagrees with frames) or corruption
    // (size runs past the shard) depending on flip direction — both are
    // rejections, never a silently misparsed utterance.
    EXPECT_TRUE(e.fault() == DataFault::kShapeMismatch ||
                e.fault() == DataFault::kCorrupt)
        << to_string(e.fault());
  }
}

TEST_F(StoreTest, CorruptIndexRejected) {
  generate_sharded_corpus(small_spec(), dir_);
  const std::string path = index_path(dir_);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(32);
  const char junk = 0x5A;
  f.write(&junk, 1);
  f.close();
  try {
    load_index(path);
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_EQ(e.fault(), DataFault::kCorrupt);
  }
}

TEST_F(StoreTest, MissingStoreThrowsIoError) {
  try {
    load_index(index_path(dir_ + "_nowhere"));
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_EQ(e.fault(), DataFault::kIo);
  }
}

TEST_F(StoreTest, DecodedShardLooksUpByOffset) {
  generate_sharded_corpus(small_spec(), dir_);
  const CorpusIndex index = load_index(index_path(dir_));
  CacheOptions copts;
  copts.prefetch = false;
  ShardCache cache(dir_, index, copts);
  const auto decoded = cache.get(0);
  ASSERT_GT(decoded->utterances.size(), 0u);
  for (const IndexEntry& e : index.entries) {
    if (e.shard != 0) continue;
    EXPECT_EQ(decoded->at_offset(e.offset).id, e.id);
  }
  EXPECT_THROW(decoded->at_offset(kShardHeaderBytes + 1), DataError);
}

}  // namespace
}  // namespace bgqhf::speech::store
