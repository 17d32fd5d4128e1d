// Sharded corpus writer.
//
// Streams utterances into rolling BGQS1 shard files and builds the
// sample-list index as it goes; nothing but the current record buffer and
// the index rows is ever resident, so generating a 400-hour-spec corpus
// runs in O(shard) memory. finish() seals the last shard and atomically
// writes index.bgqsx.
#pragma once

#include <cstdio>
#include <string>

#include "speech/corpus.h"
#include "speech/store/format.h"

namespace bgqhf::speech::store {

struct WriterOptions {
  /// Roll to a new shard once the current one reaches this size. The paper
  /// regime wants shards big enough to amortize I/O but small enough that
  /// a prefetch depth of 2 keeps memory bounded.
  std::size_t target_shard_bytes = 8u << 20;
  /// Shard files are named "<basename>-NNNNN.bgqs".
  std::string basename = "shard";
};

class ShardWriter {
 public:
  /// Throws DataError{kIo} if `dir` is not writable.
  ShardWriter(std::string dir, std::size_t feature_dim,
              std::size_t num_states, WriterOptions options = {});
  ~ShardWriter();

  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;

  /// Append one utterance to the store (rolls shards as needed).
  void add(const Utterance& utt);

  /// Seal the current shard and write the index. Returns the index that
  /// was written. The writer cannot be used afterwards.
  CorpusIndex finish();

  std::size_t bytes_written() const { return bytes_written_; }

 private:
  void open_next_shard();
  void seal_shard();

  std::string dir_;
  WriterOptions options_;
  CorpusIndex index_;
  std::FILE* shard_ = nullptr;
  std::string shard_name_;
  std::size_t shard_offset_ = 0;   // next record's byte offset
  std::uint64_t shard_records_ = 0;
  std::size_t bytes_written_ = 0;
  bool finished_ = false;
};

/// Stream-generate the spec's corpus straight into shards — the identical
/// utterance sequence generate_corpus(spec) would produce, without ever
/// materializing it (CorpusGenerator shares the batch generator's RNG
/// discipline).
CorpusIndex generate_sharded_corpus(const CorpusSpec& spec,
                                    const std::string& dir,
                                    WriterOptions options = {});

}  // namespace bgqhf::speech::store
