#include "speech/features.h"

#include <stdexcept>

namespace bgqhf::speech {

void Normalizer::apply(blas::MatrixView<float> m) const {
  if (m.cols != dim()) {
    throw std::invalid_argument("Normalizer: dimension mismatch");
  }
  for (std::size_t r = 0; r < m.rows; ++r) {
    float* row = m.data + r * m.ld;
    for (std::size_t c = 0; c < m.cols; ++c) {
      row[c] = (row[c] - mean[c]) * inv_std[c];
    }
  }
}

blas::Matrix<float> stack_context(blas::ConstMatrixView<float> features,
                                  std::size_t context) {
  const std::size_t T = features.rows;
  const std::size_t D = features.cols;
  blas::Matrix<float> out(T, stacked_dim(D, context));
  const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(context);
  for (std::size_t t = 0; t < T; ++t) {
    std::size_t col = 0;
    for (std::ptrdiff_t off = -c; off <= c; ++off) {
      std::ptrdiff_t src = static_cast<std::ptrdiff_t>(t) + off;
      if (src < 0) src = 0;
      if (src >= static_cast<std::ptrdiff_t>(T)) {
        src = static_cast<std::ptrdiff_t>(T) - 1;
      }
      for (std::size_t d = 0; d < D; ++d) {
        out(t, col++) = features(static_cast<std::size_t>(src), d);
      }
    }
  }
  return out;
}

}  // namespace bgqhf::speech
