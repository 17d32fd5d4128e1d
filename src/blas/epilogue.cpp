#include "blas/epilogue.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "blas/sigmoid.h"

namespace bgqhf::blas {

float sigmoid(float x) {
  using namespace sigmoid_const;
  float t = -x;
  // Written as (bound OP t) so a NaN t survives both clamps, exactly like
  // the vector min/max(bound, t) of the epilogues.
  t = kClampHi < t ? kClampHi : t;
  t = kClampLo > t ? kClampLo : t;
  const float shifted = std::fma(t, kLog2e, kShifter);
  const float n = shifted - kShifter;
  float r = std::fma(n, -kLn2Hi, t);
  r = std::fma(n, -kLn2Lo, r);
  float p = std::fma(kC6, r, kC5);
  p = std::fma(p, r, kC4);
  p = std::fma(p, r, kC3);
  p = std::fma(p, r, 0.5f);
  p = std::fma(p, r, 1.0f);
  p = std::fma(p, r, 1.0f);
  const std::uint32_t scale_bits =
      (std::bit_cast<std::uint32_t>(shifted) -
       std::bit_cast<std::uint32_t>(kShifter) + kExpBias)
      << 23;
  const float e = (p * std::bit_cast<float>(scale_bits)) * 2.0f;
  return 1.0f / (1.0f + e);
}

void epilogue_tile_scalar(const GemmEpilogue& ep, float* __restrict c,
                          std::size_t ldc, std::size_t mr, std::size_t nr,
                          std::size_t row0, std::size_t col0,
                          float* colsum_acc) {
  if (ep.bias != nullptr) {
    const float* __restrict bias = ep.bias + col0;
    for (std::size_t i = 0; i < mr; ++i) {
      float* row = c + i * ldc;
      for (std::size_t j = 0; j < nr; ++j) row[j] += bias[j];
    }
  }
  switch (ep.act) {
    case EpilogueAct::kNone:
      break;
    case EpilogueAct::kSigmoid:
      for (std::size_t i = 0; i < mr; ++i) {
        float* row = c + i * ldc;
        for (std::size_t j = 0; j < nr; ++j) row[j] = sigmoid(row[j]);
      }
      break;
    case EpilogueAct::kTanh:
      for (std::size_t i = 0; i < mr; ++i) {
        float* row = c + i * ldc;
        for (std::size_t j = 0; j < nr; ++j) row[j] = std::tanh(row[j]);
      }
      break;
    case EpilogueAct::kReLU:
      for (std::size_t i = 0; i < mr; ++i) {
        float* row = c + i * ldc;
        for (std::size_t j = 0; j < nr; ++j) {
          row[j] = row[j] > 0.0f ? row[j] : 0.0f;
        }
      }
      break;
  }
  if (ep.deriv_aux.data != nullptr) {
    for (std::size_t i = 0; i < mr; ++i) {
      float* row = c + i * ldc;
      const float* aux =
          ep.deriv_aux.data + (row0 + i) * ep.deriv_aux.ld + col0;
      switch (ep.deriv_act) {
        case EpilogueAct::kNone:
          break;
        case EpilogueAct::kSigmoid:
          for (std::size_t j = 0; j < nr; ++j) {
            row[j] *= aux[j] * (1.0f - aux[j]);
          }
          break;
        case EpilogueAct::kTanh:
          for (std::size_t j = 0; j < nr; ++j) {
            row[j] *= 1.0f - aux[j] * aux[j];
          }
          break;
        case EpilogueAct::kReLU:
          for (std::size_t j = 0; j < nr; ++j) {
            if (aux[j] <= 0.0f) row[j] = 0.0f;
          }
          break;
      }
    }
  }
  if (colsum_acc != nullptr) {
    float* __restrict sums = colsum_acc + col0;
    for (std::size_t i = 0; i < mr; ++i) {
      const float* row = c + i * ldc;
      for (std::size_t j = 0; j < nr; ++j) sums[j] += row[j];
    }
  }
}

}  // namespace bgqhf::blas
