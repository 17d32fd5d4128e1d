// Feature post-processing: context-window stacking and normalization.
//
// Speech DNNs classify a frame from a window of +/- c neighbouring frames;
// stacking turns a T x D utterance into T x D*(2c+1) network inputs (edge
// frames clamp). Mean/variance normalization is computed once over the
// training data (estimate_normalizer in source.h) and applied everywhere,
// including held-out data.
#pragma once

#include <cstddef>
#include <vector>

#include "blas/matrix.h"

namespace bgqhf::speech {

/// Per-dimension affine normalizer: x -> (x - mean) * inv_std.
struct Normalizer {
  std::vector<float> mean;
  std::vector<float> inv_std;

  std::size_t dim() const { return mean.size(); }
  void apply(blas::MatrixView<float> m) const;
};

/// Stack +/- context frames around every frame of `features` (edge clamp).
/// Result: features.rows() x features.cols()*(2*context+1).
blas::Matrix<float> stack_context(blas::ConstMatrixView<float> features,
                                  std::size_t context);

/// Input dimensionality after stacking.
inline std::size_t stacked_dim(std::size_t feature_dim, std::size_t context) {
  return feature_dim * (2 * context + 1);
}

}  // namespace bgqhf::speech
