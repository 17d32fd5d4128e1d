// Fused GEMM epilogue: the elementwise tail of a DNN layer applied to each
// C tile immediately after its last k-block update, while the tile is still
// hot in cache.
//
// The paper's enablement story (Sec. V-A4) is about keeping the worker loop
// memory-bound work down; the unfused formulation re-reads and re-writes the
// whole activation matrix once for the bias add, once for the activation,
// and once more for the bias-gradient column reduction. The epilogue folds
// all three into the last rank-kc update of each 8x16 tile, eliminating one
// full sweep over activations per layer in forward and backprop.
#pragma once

#include <cmath>
#include <cstddef>

#include "blas/matrix.h"

namespace bgqhf::blas {

/// Activation applied by the fused epilogue. Mirrors nn::Activation but
/// lives in blas so the BLAS layer stays independent of nn.
enum class EpilogueAct { kNone, kSigmoid, kTanh, kReLU };

/// Elementwise tail fused into gemm_fused(). Applied per C tile in order:
///   1. C(i,j) += bias[j]                       (if bias != nullptr)
///   2. C(i,j) = act(C(i,j))                    (if act != kNone)
///   3. C(i,j) *= act'(deriv_aux(i,j))          (if deriv_aux.data != nullptr,
///      derivative expressed via the activation *output*, as in
///      nn::multiply_by_derivative)
///   4. col_sums[j] += sum_i C(i,j)             (if col_sums != nullptr; the
///      bias-gradient column reduction)
/// Indices are in the frame of the full C matrix; bias/col_sums have length
/// C.cols. All steps see the final (post-k-loop) C values.
template <typename T>
struct GemmEpilogue {
  const T* bias = nullptr;
  EpilogueAct act = EpilogueAct::kNone;
  ConstMatrixView<T> deriv_aux;  // same shape as C when active
  EpilogueAct deriv_act = EpilogueAct::kNone;
  T* col_sums = nullptr;

  bool empty() const {
    return bias == nullptr && act == EpilogueAct::kNone &&
           deriv_aux.data == nullptr && col_sums == nullptr;
  }
};

/// Apply the epilogue to the tile C(row0:row0+mr, col0:col0+nr), given as a
/// raw pointer to its top-left element. `colsum_acc`, when non-null, points
/// at a length-C.cols accumulator row (the driver gives each ic row-block
/// its own row to keep threads race-free, then reduces).
///
/// The scalar formulas match nn/activations.cpp exactly so the fused path
/// is bitwise-identical to gemm + apply_activation / multiply_by_derivative.
template <typename T>
inline void apply_epilogue_tile(const GemmEpilogue<T>& ep, T* __restrict c,
                                std::size_t ldc, std::size_t mr,
                                std::size_t nr, std::size_t row0,
                                std::size_t col0, T* colsum_acc) {
  if (ep.bias != nullptr) {
    const T* __restrict bias = ep.bias + col0;
    for (std::size_t i = 0; i < mr; ++i) {
      T* row = c + i * ldc;
      for (std::size_t j = 0; j < nr; ++j) row[j] += bias[j];
    }
  }
  switch (ep.act) {
    case EpilogueAct::kNone:
      break;
    case EpilogueAct::kSigmoid:
      for (std::size_t i = 0; i < mr; ++i) {
        T* row = c + i * ldc;
        for (std::size_t j = 0; j < nr; ++j) {
          row[j] = T{1} / (T{1} + std::exp(-row[j]));
        }
      }
      break;
    case EpilogueAct::kTanh:
      for (std::size_t i = 0; i < mr; ++i) {
        T* row = c + i * ldc;
        for (std::size_t j = 0; j < nr; ++j) row[j] = std::tanh(row[j]);
      }
      break;
    case EpilogueAct::kReLU:
      for (std::size_t i = 0; i < mr; ++i) {
        T* row = c + i * ldc;
        for (std::size_t j = 0; j < nr; ++j) {
          row[j] = row[j] > T{} ? row[j] : T{};
        }
      }
      break;
  }
  if (ep.deriv_aux.data != nullptr) {
    for (std::size_t i = 0; i < mr; ++i) {
      T* row = c + i * ldc;
      const T* aux = ep.deriv_aux.data + (row0 + i) * ep.deriv_aux.ld + col0;
      switch (ep.deriv_act) {
        case EpilogueAct::kNone:
          break;
        case EpilogueAct::kSigmoid:
          for (std::size_t j = 0; j < nr; ++j) {
            row[j] *= aux[j] * (T{1} - aux[j]);
          }
          break;
        case EpilogueAct::kTanh:
          for (std::size_t j = 0; j < nr; ++j) {
            row[j] *= T{1} - aux[j] * aux[j];
          }
          break;
        case EpilogueAct::kReLU:
          for (std::size_t j = 0; j < nr; ++j) {
            if (aux[j] <= T{}) row[j] = T{};
          }
          break;
      }
    }
  }
  if (colsum_acc != nullptr) {
    T* __restrict sums = colsum_acc + col0;
    for (std::size_t i = 0; i < mr; ++i) {
      const T* row = c + i * ldc;
      for (std::size_t j = 0; j < nr; ++j) sums[j] += row[j];
    }
  }
}

}  // namespace bgqhf::blas
