#include "speech/source.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/config.h"

namespace bgqhf::speech {

namespace {

std::vector<std::size_t> iota_ordinals(std::size_t n) {
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

struct OrdinalSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> heldout;
};

/// The held-out rule, for every source: of `n` ordinals, i is held out
/// iff i % k == k - 1 (k = 0 holds out nothing).
OrdinalSplit split_ordinals(std::size_t n, std::size_t every_kth) {
  if (every_kth == 1) {
    throw std::invalid_argument(
        "SourceOptions: heldout_every_kth must be 0 (no split) or >= 2");
  }
  OrdinalSplit split;
  for (std::size_t i = 0; i < n; ++i) {
    const bool held = every_kth != 0 && i % every_kth == every_kth - 1;
    (held ? split.heldout : split.train).push_back(i);
  }
  return split;
}

/// Split `n` ordinals and wrap each half as the view `make(ordinals,
/// strategy)` builds. Both halves partition per options: every blocking
/// held-out loss waits for its largest shard, just as a gradient does.
template <typename MakeView>
SourceSplit make_split(std::size_t n, const SourceOptions& options,
                       const MakeView& make) {
  OrdinalSplit ordinals = split_ordinals(n, options.heldout_every_kth);
  SourceSplit split;
  split.train = make(std::move(ordinals.train), options.partition);
  if (options.heldout_every_kth != 0) {
    split.heldout = make(std::move(ordinals.heldout), options.partition);
  }
  return split;
}

}  // namespace

// ---- DataSource ----

void DataSource::visit(const std::function<void(const Utterance&)>& fn) {
  const std::vector<std::size_t> all = iota_ordinals(num_utterances());
  for_each(all, fn);
}

std::size_t DataSource::total_frames() const {
  const auto& len = lengths();
  return std::accumulate(len.begin(), len.end(), std::size_t{0});
}

Partition DataSource::partition(std::size_t workers) const {
  return partition_utterances(lengths(), workers, strategy_);
}

// ---- InMemorySource ----

InMemorySource::InMemorySource(std::shared_ptr<const Corpus> corpus,
                               std::vector<std::size_t> corpus_ordinals,
                               PartitionStrategy strategy)
    : DataSource(strategy),
      corpus_(std::move(corpus)),
      corpus_ordinals_(std::move(corpus_ordinals)) {
  lengths_.reserve(corpus_ordinals_.size());
  for (const std::size_t ord : corpus_ordinals_) {
    lengths_.push_back(corpus_->utterances.at(ord).num_frames());
  }
}

std::size_t InMemorySource::num_utterances() const {
  return corpus_ordinals_.size();
}

void InMemorySource::for_each(
    std::span<const std::size_t> ordinals,
    const std::function<void(const Utterance&)>& fn) {
  for (const std::size_t ord : ordinals) {
    fn(corpus_->utterances[corpus_ordinals_.at(ord)]);
  }
}

// ---- ShardedSource ----

ShardedSource::ShardedSource(
    std::shared_ptr<const store::CorpusIndex> index,
    std::shared_ptr<store::ShardCache> cache,
    std::vector<std::size_t> store_ordinals, PartitionStrategy strategy)
    : DataSource(strategy),
      index_(std::move(index)),
      cache_(std::move(cache)),
      store_ordinals_(std::move(store_ordinals)) {
  lengths_.reserve(store_ordinals_.size());
  for (const std::size_t ord : store_ordinals_) {
    lengths_.push_back(
        static_cast<std::size_t>(index_->entries.at(ord).frames));
  }
}

std::size_t ShardedSource::num_utterances() const {
  return store_ordinals_.size();
}

void ShardedSource::for_each(
    std::span<const std::size_t> ordinals,
    const std::function<void(const Utterance&)>& fn) {
  // Announce the shard plan implied by the visit order so the loader runs
  // ahead of us, then walk it holding one decoded shard at a time.
  std::vector<std::uint32_t> plan;
  for (const std::size_t ord : ordinals) {
    const std::uint32_t shard = index_->entries.at(store_ordinals_.at(ord)).shard;
    if (plan.empty() || plan.back() != shard) plan.push_back(shard);
  }
  cache_->schedule(plan);

  std::shared_ptr<const store::DecodedShard> current;
  for (const std::size_t ord : ordinals) {
    const store::IndexEntry& entry = index_->entries[store_ordinals_[ord]];
    if (current == nullptr || current->shard != entry.shard) {
      current = cache_->get(entry.shard);
    }
    fn(current->at_offset(entry.offset));
  }
}

// ---- splits ----

SourceSplit make_in_memory_split(Corpus corpus, const SourceOptions& options) {
  auto shared = std::make_shared<const Corpus>(std::move(corpus));
  return make_split(
      shared->utterances.size(), options,
      [&](std::vector<std::size_t> ordinals, PartitionStrategy strategy) {
        return std::make_unique<InMemorySource>(shared, std::move(ordinals),
                                                strategy);
      });
}

SourceSplit open_sharded_split(const std::string& dir,
                               const SourceOptions& options) {
  auto index = std::make_shared<const store::CorpusIndex>(
      store::load_index(store::index_path(dir)));

  store::CacheOptions copts;
  copts.depth = options.prefetch_depth;
  copts.prefetch = options.prefetch;
  copts.fault = options.io_fault;
  auto cache = std::make_shared<store::ShardCache>(dir, *index, copts);

  return make_split(
      index->entries.size(), options,
      [&](std::vector<std::size_t> ordinals, PartitionStrategy strategy) {
        return std::make_unique<ShardedSource>(index, cache,
                                               std::move(ordinals), strategy);
      });
}

// ---- helpers over the API ----

StoreConfig StoreConfig::from_env() {
  const util::RuntimeEnv& env = util::RuntimeEnv::get();
  StoreConfig config;
  config.data_dir = env.data_dir;
  if (env.prefetch_depth != 0) {
    config.prefetch_depth = static_cast<std::size_t>(env.prefetch_depth);
  }
  return config;
}

Normalizer estimate_normalizer(DataSource& source) {
  const std::size_t d = source.feature_dim();
  std::vector<double> sum(d, 0.0);
  std::vector<double> sumsq(d, 0.0);
  std::size_t frames = 0;
  source.visit([&](const Utterance& utt) {
    if (utt.features.cols() != d) {
      throw std::invalid_argument("estimate_normalizer: dimension mismatch");
    }
    for (std::size_t t = 0; t < utt.num_frames(); ++t) {
      for (std::size_t c = 0; c < d; ++c) {
        const double v = utt.features(t, c);
        sum[c] += v;
        sumsq[c] += v * v;
      }
    }
    frames += utt.num_frames();
  });
  if (frames == 0) {
    throw std::invalid_argument("estimate_normalizer: empty corpus");
  }
  const double n = static_cast<double>(frames);
  Normalizer norm;
  norm.mean.resize(d);
  norm.inv_std.resize(d);
  for (std::size_t c = 0; c < d; ++c) {
    const double mean = sum[c] / n;
    const double var = std::max(1e-8, sumsq[c] / n - mean * mean);
    norm.mean[c] = static_cast<float>(mean);
    norm.inv_std[c] = static_cast<float>(1.0 / std::sqrt(var));
  }
  return norm;
}

}  // namespace bgqhf::speech
