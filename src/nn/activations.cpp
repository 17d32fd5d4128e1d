#include "nn/activations.h"

#include <cmath>
#include <stdexcept>

#include "blas/sigmoid.h"

namespace bgqhf::nn {

std::string to_string(Activation a) {
  switch (a) {
    case Activation::kSigmoid:
      return "sigmoid";
    case Activation::kTanh:
      return "tanh";
    case Activation::kReLU:
      return "relu";
    case Activation::kLinear:
      return "linear";
  }
  throw std::invalid_argument("unknown activation");
}

blas::EpilogueAct to_epilogue(Activation a) {
  switch (a) {
    case Activation::kSigmoid:
      return blas::EpilogueAct::kSigmoid;
    case Activation::kTanh:
      return blas::EpilogueAct::kTanh;
    case Activation::kReLU:
      return blas::EpilogueAct::kReLU;
    case Activation::kLinear:
      return blas::EpilogueAct::kNone;
  }
  throw std::invalid_argument("unknown activation");
}

void apply_activation(Activation act, blas::MatrixView<float> z) {
  switch (act) {
    case Activation::kLinear:
      return;
    case Activation::kSigmoid:
      for (std::size_t r = 0; r < z.rows; ++r) {
        float* row = z.data + r * z.ld;
        for (std::size_t c = 0; c < z.cols; ++c) {
          row[c] = blas::sigmoid(row[c]);
        }
      }
      return;
    case Activation::kTanh:
      for (std::size_t r = 0; r < z.rows; ++r) {
        float* row = z.data + r * z.ld;
        for (std::size_t c = 0; c < z.cols; ++c) row[c] = std::tanh(row[c]);
      }
      return;
    case Activation::kReLU:
      for (std::size_t r = 0; r < z.rows; ++r) {
        float* row = z.data + r * z.ld;
        for (std::size_t c = 0; c < z.cols; ++c) {
          row[c] = row[c] > 0.0f ? row[c] : 0.0f;
        }
      }
      return;
  }
}

void multiply_by_derivative(Activation act, blas::ConstMatrixView<float> a,
                            blas::MatrixView<float> m) {
  if (a.rows != m.rows || a.cols != m.cols) {
    throw std::invalid_argument("multiply_by_derivative: shape mismatch");
  }
  switch (act) {
    case Activation::kLinear:
      return;
    case Activation::kSigmoid:
      for (std::size_t r = 0; r < m.rows; ++r) {
        for (std::size_t c = 0; c < m.cols; ++c) {
          const float av = a(r, c);
          m(r, c) *= av * (1.0f - av);
        }
      }
      return;
    case Activation::kTanh:
      for (std::size_t r = 0; r < m.rows; ++r) {
        for (std::size_t c = 0; c < m.cols; ++c) {
          const float av = a(r, c);
          m(r, c) *= 1.0f - av * av;
        }
      }
      return;
    case Activation::kReLU:
      for (std::size_t r = 0; r < m.rows; ++r) {
        for (std::size_t c = 0; c < m.cols; ++c) {
          if (a(r, c) <= 0.0f) m(r, c) = 0.0f;
        }
      }
      return;
  }
}

}  // namespace bgqhf::nn
