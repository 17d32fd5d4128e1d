// Network-ready dataset assembly.
//
// Flattens a set of utterances into one frame matrix (context-stacked,
// normalized) while keeping utterance boundaries, which the sequence
// criterion and the per-utterance partitioning need.
#pragma once

#include <span>
#include <vector>

#include "blas/matrix.h"
#include "speech/features.h"

namespace bgqhf::speech {

struct Dataset {
  blas::Matrix<float> x;            // total_frames x stacked_dim
  std::vector<int> labels;          // total_frames
  std::vector<std::size_t> offsets; // utterance u spans [offsets[u], offsets[u+1])

  std::size_t num_frames() const { return labels.size(); }
  std::size_t num_utterances() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::size_t utt_frames(std::size_t u) const {
    return offsets[u + 1] - offsets[u];
  }
  blas::ConstMatrixView<float> utt_x(std::size_t u) const {
    return x.view().block(offsets[u], 0, utt_frames(u), x.cols());
  }
  std::span<const int> utt_labels(std::size_t u) const {
    return std::span<const int>(labels).subspan(offsets[u], utt_frames(u));
  }
};

class DataSource;

/// Build a dataset by streaming the given ordinals out of a DataSource, in
/// the given order. Features are normalized by `norm` (if non-null), then
/// stacked with +/- `context` frames, so at equal utterance content the
/// dataset is bitwise identical whether the bytes came from RAM or a
/// sharded store.
Dataset build_dataset(DataSource& source,
                      std::span<const std::size_t> indices,
                      const Normalizer* norm, std::size_t context);

/// Build from every utterance of the source.
Dataset build_full_dataset(DataSource& source, const Normalizer* norm,
                           std::size_t context);

/// `parts` (e.g. build_shards' per-rank shards) as one dataset, in part
/// order: the whole training or held-out set for single-dataset runs.
/// `parts` must be non-empty.
Dataset concat_datasets(std::span<const Dataset> parts);

}  // namespace bgqhf::speech
