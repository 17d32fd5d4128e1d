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
//
// The tile function is an entry of the runtime-dispatch kernel table
// (dispatch.h): the scalar reference below serves the scalar and SSE2
// tiers, and kernels_avx2.cpp / kernels_avx512.cpp carry vector versions
// that apply the same per-element operations in the same order (sigmoid
// through blas::sigmoid, sigmoid.h), so every tier is bitwise identical.
#pragma once

#include <cstddef>

#include "blas/matrix.h"

namespace bgqhf::blas {

/// Activation applied by the fused epilogue. Mirrors nn::Activation but
/// lives in blas so the BLAS layer stays independent of nn.
enum class EpilogueAct { kNone, kSigmoid, kTanh, kReLU };

/// Elementwise tail fused into gemm_fused() (fp32 only). Applied per C tile
/// in order:
///   1. C(i,j) += bias[j]                       (if bias != nullptr)
///   2. C(i,j) = act(C(i,j))                    (if act != kNone; sigmoid
///      is blas::sigmoid, tanh std::tanh)
///   3. C(i,j) *= act'(deriv_aux(i,j))          (if deriv_aux.data != nullptr,
///      derivative expressed via the activation *output*, as in
///      nn::multiply_by_derivative)
///   4. col_sums[j] += sum_i C(i,j)             (if col_sums != nullptr; the
///      bias-gradient column reduction, rows in ascending order)
/// Indices are in the frame of the full C matrix; bias/col_sums have length
/// C.cols. All steps see the final (post-k-loop) C values.
struct GemmEpilogue {
  const float* bias = nullptr;
  EpilogueAct act = EpilogueAct::kNone;
  ConstMatrixView<float> deriv_aux;  // same shape as C when active
  EpilogueAct deriv_act = EpilogueAct::kNone;
  float* col_sums = nullptr;

  bool empty() const {
    return bias == nullptr && act == EpilogueAct::kNone &&
           deriv_aux.data == nullptr && col_sums == nullptr;
  }
};

/// Apply the epilogue to the tile C(row0:row0+mr, col0:col0+nr), given as a
/// raw pointer to its top-left element. `colsum_acc`, when non-null, points
/// at a length-C.cols accumulator row (the driver gives each row block its
/// own row to keep threads race-free, then reduces). Any mr, nr.
using EpilogueTileFn = void (*)(const GemmEpilogue& ep, float* c,
                                std::size_t ldc, std::size_t mr,
                                std::size_t nr, std::size_t row0,
                                std::size_t col0, float* colsum_acc);

/// The scalar reference. Its formulas match nn/activations.cpp exactly,
/// so the fused path is bitwise identical to gemm + apply_activation /
/// multiply_by_derivative.
void epilogue_tile_scalar(const GemmEpilogue& ep, float* c, std::size_t ldc,
                          std::size_t mr, std::size_t nr, std::size_t row0,
                          std::size_t col0, float* colsum_acc);

}  // namespace bgqhf::blas
