// The DataSource API: the one way from utterances to training data.
//
// The trainer sees an ordered collection of utterances with index-only
// metadata (lengths, shapes) and pulls feature bytes on demand. Both
// implementations are views over chosen ordinals of one shared collection:
//
//   - InMemorySource over a generated Corpus held in RAM;
//   - ShardedSource over a BGQS1 store, streamed through the prefetching
//     ShardCache, never holding more than the prefetch window in RAM.
//
// The two factories below split a collection into train and held-out
// views by one rule (split_ordinals in source.cpp), so both
// present the *same utterance order* for the same underlying data, and
// estimate_normalizer / build_dataset fold per-utterance in that order —
// the paper's "no loss in accuracy" claim in testable form: a
// ShardedSource run is bitwise identical to the in-RAM run at equal seed.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "speech/corpus.h"
#include "speech/error.h"
#include "speech/features.h"
#include "speech/partition.h"
#include "speech/store/prefetch.h"

namespace bgqhf::speech {

/// Construction-time options shared by every DataSource factory.
struct SourceOptions {
  /// Ordinal i goes to the held-out set iff i % k == k - 1. 0 = no split:
  /// all data is training data and SourceSplit.heldout is null. Values 1
  /// are invalid.
  std::size_t heldout_every_kth = 0;
  /// Partition strategy baked into the training and held-out sources
  /// (partition() uses it).
  PartitionStrategy partition = PartitionStrategy::kSortedBalanced;
  /// Sharded sources only: prefetch window and the deterministic slow-I/O
  /// hook (tests / datastore bench).
  std::size_t prefetch_depth = 2;
  bool prefetch = true;
  store::IoFault io_fault;
};

/// Environment-resolved store selection (BGQHF_DATA_DIR /
/// BGQHF_PREFETCH_DEPTH via util::RuntimeEnv, injectable with
/// set_for_tests). An empty data_dir means "no store: generate in RAM".
struct StoreConfig {
  std::string data_dir;
  std::size_t prefetch_depth = 2;

  static StoreConfig from_env();
};

/// Ordered, random-access collection of utterances. Metadata (counts,
/// shapes, lengths) is index-only — partitioning and held-out splitting
/// never touch feature bytes. Fetching is pull-based so an out-of-core
/// implementation can stream.
class DataSource {
 public:
  virtual ~DataSource() = default;

  virtual std::size_t num_utterances() const = 0;
  virtual std::size_t feature_dim() const = 0;
  virtual std::size_t num_states() const = 0;
  /// Frames per utterance, by ordinal. Computed from the index alone.
  virtual const std::vector<std::size_t>& lengths() const = 0;

  /// Visit the given ordinals, in the given order, without copying.
  /// The reference passed to `fn` is valid only during the call. This is
  /// the zero-copy workhorse visit()/build_dataset sit on; the sharded
  /// implementation prefetches the implied shard plan first.
  virtual void for_each(std::span<const std::size_t> ordinals,
                        const std::function<void(const Utterance&)>& fn) = 0;

  /// Visit every utterance in ordinal order.
  void visit(const std::function<void(const Utterance&)>& fn);

  std::size_t total_frames() const;

  /// Partition this source's utterances across `workers` using the
  /// strategy selected at construction — from lengths() only.
  Partition partition(std::size_t workers) const;

 protected:
  explicit DataSource(PartitionStrategy strategy) : strategy_(strategy) {}

 private:
  PartitionStrategy strategy_;
};

/// A view over selected ordinals of one in-RAM Corpus. The train and
/// held-out halves of a split share the corpus.
class InMemorySource final : public DataSource {
 public:
  InMemorySource(std::shared_ptr<const Corpus> corpus,
                 std::vector<std::size_t> corpus_ordinals,
                 PartitionStrategy strategy);

  std::size_t num_utterances() const override;
  std::size_t feature_dim() const override { return corpus_->feature_dim; }
  std::size_t num_states() const override { return corpus_->num_states; }
  const std::vector<std::size_t>& lengths() const override {
    return lengths_;
  }
  void for_each(std::span<const std::size_t> ordinals,
                const std::function<void(const Utterance&)>& fn) override;

 private:
  std::shared_ptr<const Corpus> corpus_;
  std::vector<std::size_t> corpus_ordinals_;  // view ordinal -> utterance
  std::vector<std::size_t> lengths_;
};

/// A view over selected ordinals of an opened BGQS1 store, streamed through
/// a (possibly shared) prefetch cache. The train and held-out halves of a
/// split share one cache so the loader window serves both.
class ShardedSource final : public DataSource {
 public:
  ShardedSource(std::shared_ptr<const store::CorpusIndex> index,
                std::shared_ptr<store::ShardCache> cache,
                std::vector<std::size_t> store_ordinals,
                PartitionStrategy strategy);

  std::size_t num_utterances() const override;
  std::size_t feature_dim() const override { return index_->feature_dim; }
  std::size_t num_states() const override { return index_->num_states; }
  const std::vector<std::size_t>& lengths() const override {
    return lengths_;
  }
  void for_each(std::span<const std::size_t> ordinals,
                const std::function<void(const Utterance&)>& fn) override;

  /// Prefetch accounting (hits/misses/bytes/stall), for tests and the
  /// datastore bench. Shared with the sibling split half.
  store::CacheStats cache_stats() const { return cache_->stats(); }
  const store::ShardCache& cache() const { return *cache_; }

 private:
  std::shared_ptr<const store::CorpusIndex> index_;
  std::shared_ptr<store::ShardCache> cache_;
  std::vector<std::size_t> store_ordinals_;  // view ordinal -> index entry
  std::vector<std::size_t> lengths_;
};

/// A train/held-out pair from one underlying collection. heldout is null
/// when options.heldout_every_kth == 0.
struct SourceSplit {
  std::unique_ptr<DataSource> train;
  std::unique_ptr<DataSource> heldout;
};

/// Split `corpus` per options into two InMemorySource views over it.
/// Throws std::invalid_argument when options.heldout_every_kth == 1.
SourceSplit make_in_memory_split(Corpus corpus, const SourceOptions& options);

/// Open the sharded store at `dir` and split it by the same rule — from
/// the index alone; no shard data is touched until utterances are
/// fetched. Throws DataError on a missing/corrupt store and
/// std::invalid_argument when options.heldout_every_kth == 1.
SourceSplit open_sharded_split(const std::string& dir,
                               const SourceOptions& options);

/// Estimate the global normalizer over every utterance of `source`, in
/// ordinal order: per-dimension double sums folded utterance by
/// utterance, so the same utterances in the same order yield a
/// bit-identical Normalizer whichever source served the bytes.
Normalizer estimate_normalizer(DataSource& source);

}  // namespace bgqhf::speech
