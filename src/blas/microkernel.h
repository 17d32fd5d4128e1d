// Register-blocked GEMM micro-kernel (portable scalar reference).
//
// Portable analogue of the paper's assembly inner kernel: an 8x16 C update
// accumulated in registers by a sequence of rank-1 outer products over
// packed, strictly stride-one A and B panels (Sec. V-A2). The accumulator
// array and fixed trip counts let GCC fully unroll and vectorize the body;
// fringes are handled by zero-padding during packing, never by branches
// here.
//
// This scalar kernel is the reference implementation behind the runtime
// kernel dispatch (dispatch.h); SIMD variants live in kernels_sse2.h /
// kernels_avx2.h / kernels_avx512.h. All kernels share one contract:
//
//   C(0:mr, 0:nr) = alpha * sum_k a_panel[k] (outer) b_panel[k]
//                   + beta * C(0:mr, 0:nr)
//
// with beta == 0 meaning "write, do not read C" (NaN in C must not
// propagate). Folding beta into the kernel lets the blocked driver apply it
// on the first k-block instead of sweeping all of C in a serial pre-pass.
#pragma once

#include <cstddef>

#include "blas/pack.h"

namespace bgqhf::blas {

/// Scalar reference kernel; a_panel points at kc*MR packed values, b_panel
/// at kc*NR. See the contract above. Each 16-wide panel is walked as two
/// 8-column halves (the second is skipped when nr <= 8), so the live
/// accumulator block stays 8x8.
template <typename T>
inline void microkernel(std::size_t kc, const T* __restrict a_panel,
                        const T* __restrict b_panel, T alpha, T beta,
                        T* __restrict c, std::size_t ldc, std::size_t mr,
                        std::size_t nr) {
  for (std::size_t h = 0; h < nr; h += kNRHalf) {
    const std::size_t nh = (nr - h < kNRHalf) ? (nr - h) : kNRHalf;
    T acc[kMR][kNRHalf] = {};
    for (std::size_t k = 0; k < kc; ++k) {
      const T* __restrict a = a_panel + k * kMR;
      const T* __restrict b = b_panel + k * kNR + h;
      for (std::size_t i = 0; i < kMR; ++i) {
        const T ai = a[i];
        for (std::size_t j = 0; j < kNRHalf; ++j) {
          acc[i][j] += ai * b[j];
        }
      }
    }
    T* __restrict ch = c + h;
    if (beta == T{}) {
      if (mr == kMR && nh == kNRHalf) {
        for (std::size_t i = 0; i < kMR; ++i) {
          for (std::size_t j = 0; j < kNRHalf; ++j) {
            ch[i * ldc + j] = alpha * acc[i][j];
          }
        }
      } else {
        for (std::size_t i = 0; i < mr; ++i) {
          for (std::size_t j = 0; j < nh; ++j) {
            ch[i * ldc + j] = alpha * acc[i][j];
          }
        }
      }
    } else if (mr == kMR && nh == kNRHalf) {
      for (std::size_t i = 0; i < kMR; ++i) {
        for (std::size_t j = 0; j < kNRHalf; ++j) {
          ch[i * ldc + j] = alpha * acc[i][j] + beta * ch[i * ldc + j];
        }
      }
    } else {
      for (std::size_t i = 0; i < mr; ++i) {
        for (std::size_t j = 0; j < nh; ++j) {
          ch[i * ldc + j] = alpha * acc[i][j] + beta * ch[i * ldc + j];
        }
      }
    }
  }
}

}  // namespace bgqhf::blas
