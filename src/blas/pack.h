// Operand packing for the blocked GEMM.
//
// Mirrors the paper's kernel design: "The A and B matrices are reformatted
// in such a way so as to allow strictly stride-one access to both matrices"
// (Sec. V-A2). A is packed into MR-row panels, B into NR-column panels, both
// zero-padded at the fringes so the micro-kernel never branches on edges.
#pragma once

#include <cstddef>

#include "blas/matrix.h"

namespace bgqhf::blas {

/// Register-block dimensions. One packed-B layout serves every kernel
/// tier: the AVX-512 kernel updates a whole 8x16 C block by a sequence of
/// outer products (the paper's inner kernel does the same at the QPX
/// unit's width); the narrower kernels walk each 16-wide panel in column
/// strips (kNRHalf = 8 for AVX2 and the scalar reference, 4 for SSE2)
/// with a B stride of kNR.
inline constexpr std::size_t kMR = 8;
inline constexpr std::size_t kNR = 16;
inline constexpr std::size_t kNRHalf = kNR / 2;

/// Pack an mc x kc block of op(A) starting at (row0, col0) of the logical
/// operand. When trans is true the logical operand is A^T (the view `a` is
/// still the stored matrix). Output layout: ceil(mc/MR) panels, each panel
/// kc columns of MR contiguous values. Rows past mc are zero.
template <typename T>
void pack_a(ConstMatrixView<T> a, bool trans, std::size_t row0,
            std::size_t col0, std::size_t mc, std::size_t kc, T* buf) {
  for (std::size_t p = 0; p < mc; p += kMR) {
    const std::size_t mr = (mc - p < kMR) ? (mc - p) : kMR;
    for (std::size_t k = 0; k < kc; ++k) {
      for (std::size_t i = 0; i < mr; ++i) {
        const std::size_t r = row0 + p + i;
        const std::size_t c = col0 + k;
        *buf++ = trans ? a(c, r) : a(r, c);
      }
      for (std::size_t i = mr; i < kMR; ++i) *buf++ = T{};
    }
  }
}

/// Pack a kc x nc block of op(B) starting at (row0, col0) of the logical
/// operand. Output layout: ceil(nc/NR) panels, each panel kc rows of NR
/// contiguous values. Columns past nc are zero.
template <typename T>
void pack_b(ConstMatrixView<T> b, bool trans, std::size_t row0,
            std::size_t col0, std::size_t kc, std::size_t nc, T* buf) {
  for (std::size_t p = 0; p < nc; p += kNR) {
    const std::size_t nr = (nc - p < kNR) ? (nc - p) : kNR;
    for (std::size_t k = 0; k < kc; ++k) {
      for (std::size_t j = 0; j < nr; ++j) {
        const std::size_t r = row0 + k;
        const std::size_t c = col0 + p + j;
        *buf++ = trans ? b(c, r) : b(r, c);
      }
      for (std::size_t j = nr; j < kNR; ++j) *buf++ = T{};
    }
  }
}

/// Packed sizes in elements (fringe-padded).
inline std::size_t packed_a_elems(std::size_t mc, std::size_t kc) {
  return ((mc + kMR - 1) / kMR) * kMR * kc;
}
inline std::size_t packed_b_elems(std::size_t kc, std::size_t nc) {
  return ((nc + kNR - 1) / kNR) * kNR * kc;
}

}  // namespace bgqhf::blas
