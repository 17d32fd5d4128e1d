#include "speech/dataset.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "speech/source.h"

namespace bgqhf::speech {

namespace {

/// Shared row writer: normalize the raw features, stack context, append
/// the rows and labels. Every build_dataset overload funnels through this
/// one function so the staged matrices are bitwise identical no matter
/// where the utterance came from.
void append_utterance(Dataset& ds, const Utterance& utt,
                      const Normalizer* norm, std::size_t context,
                      std::size_t dim, std::size_t& row) {
  // Normalize raw features first, then stack, so context columns are all
  // normalized consistently.
  blas::Matrix<float> raw = utt.features;  // copy
  if (norm != nullptr) norm->apply(raw.view());
  const blas::Matrix<float> stacked = stack_context(raw.view(), context);
  if (stacked.cols() != dim) {
    throw std::logic_error("append_utterance: stacked width mismatch");
  }
  // Both are row-major with `dim` columns: one block copy.
  std::copy(stacked.data(), stacked.data() + stacked.size(),
            ds.x.data() + row * dim);
  row += stacked.rows();
  ds.labels.insert(ds.labels.end(), utt.labels.begin(), utt.labels.end());
  ds.offsets.push_back(row);
}

Dataset prepare(std::size_t total_frames, std::size_t stacked,
                std::size_t num_utts) {
  Dataset ds;
  ds.x = blas::Matrix<float>(total_frames, stacked);
  ds.labels.reserve(total_frames);
  ds.offsets.reserve(num_utts + 1);
  ds.offsets.push_back(0);
  return ds;
}

std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

}  // namespace

Dataset build_dataset(const Corpus& corpus,
                      std::span<const std::size_t> indices,
                      const Normalizer* norm, std::size_t context) {
  std::size_t total = 0;
  for (const std::size_t idx : indices) {
    total += corpus.utterances.at(idx).num_frames();
  }
  const std::size_t dim = stacked_dim(corpus.feature_dim, context);
  Dataset ds = prepare(total, dim, indices.size());
  std::size_t row = 0;
  for (const std::size_t idx : indices) {
    append_utterance(ds, corpus.utterances.at(idx), norm, context, dim, row);
  }
  return ds;
}

Dataset build_full_dataset(const Corpus& corpus, const Normalizer* norm,
                           std::size_t context) {
  const std::vector<std::size_t> all = all_indices(corpus.utterances.size());
  return build_dataset(corpus, all, norm, context);
}

Dataset build_dataset(DataSource& source,
                      std::span<const std::size_t> indices,
                      const Normalizer* norm, std::size_t context) {
  const std::vector<std::size_t>& lengths = source.lengths();
  std::size_t total = 0;
  for (const std::size_t idx : indices) total += lengths.at(idx);
  const std::size_t dim = stacked_dim(source.feature_dim(), context);
  Dataset ds = prepare(total, dim, indices.size());
  std::size_t row = 0;
  source.for_each(indices, [&](const Utterance& utt) {
    append_utterance(ds, utt, norm, context, dim, row);
  });
  return ds;
}

Dataset build_full_dataset(DataSource& source, const Normalizer* norm,
                           std::size_t context) {
  const std::vector<std::size_t> all = all_indices(source.num_utterances());
  return build_dataset(source, all, norm, context);
}

Dataset concat_datasets(std::span<const Dataset> parts) {
  if (parts.empty()) {
    throw std::invalid_argument("concat_datasets: no parts");
  }
  std::size_t rows = 0;
  for (const Dataset& p : parts) rows += p.num_frames();
  Dataset all;
  all.x = blas::Matrix<float>(rows, parts.front().x.cols());
  all.offsets.push_back(0);
  std::size_t at = 0;
  for (const Dataset& p : parts) {
    std::copy(p.x.data(), p.x.data() + p.x.size(),
              all.x.data() + at * all.x.cols());
    all.labels.insert(all.labels.end(), p.labels.begin(), p.labels.end());
    for (std::size_t u = 1; u < p.offsets.size(); ++u) {
      all.offsets.push_back(at + p.offsets[u]);
    }
    at += p.num_frames();
  }
  return all;
}

}  // namespace bgqhf::speech
