// Compiled with -mavx2 -mfma -ffp-contract=off (see CMakeLists.txt), so
// every fused multiply-add in here is an explicit one; nothing in here may
// be called before the runtime dispatcher has verified CPU support.
#include "blas/kernels_avx2.h"

#if defined(BGQHF_HAVE_AVX2_TU)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "blas/pack.h"
#include "blas/sigmoid.h"

namespace bgqhf::blas {

namespace {

// One 8-column half of a 16-wide packed B panel (row stride kNR). The full
// 8x8 half-tile lives in eight ymm accumulators; eight independent FMA
// chains hide the FMA latency without software pipelining.
void half_tile(std::size_t kc, const float* a_panel, const float* b_panel,
               float alpha, float beta, float* c, std::size_t ldc,
               std::size_t mr, std::size_t nr) {
  __m256 r0 = _mm256_setzero_ps(), r1 = _mm256_setzero_ps();
  __m256 r2 = _mm256_setzero_ps(), r3 = _mm256_setzero_ps();
  __m256 r4 = _mm256_setzero_ps(), r5 = _mm256_setzero_ps();
  __m256 r6 = _mm256_setzero_ps(), r7 = _mm256_setzero_ps();
  const float* a = a_panel;
  const float* b = b_panel;
  for (std::size_t k = 0; k < kc; ++k, a += kMR, b += kNR) {
    const __m256 bv = _mm256_loadu_ps(b);
    r0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 0), bv, r0);
    r1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 1), bv, r1);
    r2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 2), bv, r2);
    r3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 3), bv, r3);
    r4 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 4), bv, r4);
    r5 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 5), bv, r5);
    r6 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 6), bv, r6);
    r7 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 7), bv, r7);
  }

  const __m256 av = _mm256_set1_ps(alpha);
  if (mr == kMR && nr == kNRHalf) {
    // Full half-tile fast path: vector writeback straight into C,
    // fma(beta, C, alpha * acc).
    __m256 rows[kMR] = {r0, r1, r2, r3, r4, r5, r6, r7};
    if (beta == 0.0f) {
      for (std::size_t i = 0; i < kMR; ++i) {
        _mm256_storeu_ps(c + i * ldc, _mm256_mul_ps(av, rows[i]));
      }
    } else {
      const __m256 bv = _mm256_set1_ps(beta);
      for (std::size_t i = 0; i < kMR; ++i) {
        _mm256_storeu_ps(c + i * ldc,
                         _mm256_fmadd_ps(bv, _mm256_loadu_ps(c + i * ldc),
                                         _mm256_mul_ps(av, rows[i])));
      }
    }
    return;
  }

  // Fringe: spill the accumulators and write the valid region as
  // fma(alpha, acc, beta * C). The fused form is spelled out so the result
  // does not depend on the compiler's contraction of alpha*acc + beta*C;
  // sgemm_microkernel_avx512 applies the same rule.
  alignas(32) float acc[kMR * kNRHalf];
  _mm256_store_ps(acc + 0 * kNRHalf, r0);
  _mm256_store_ps(acc + 1 * kNRHalf, r1);
  _mm256_store_ps(acc + 2 * kNRHalf, r2);
  _mm256_store_ps(acc + 3 * kNRHalf, r3);
  _mm256_store_ps(acc + 4 * kNRHalf, r4);
  _mm256_store_ps(acc + 5 * kNRHalf, r5);
  _mm256_store_ps(acc + 6 * kNRHalf, r6);
  _mm256_store_ps(acc + 7 * kNRHalf, r7);
  if (beta == 0.0f) {
    for (std::size_t i = 0; i < mr; ++i) {
      for (std::size_t j = 0; j < nr; ++j) {
        c[i * ldc + j] = alpha * acc[i * kNRHalf + j];
      }
    }
  } else {
    for (std::size_t i = 0; i < mr; ++i) {
      for (std::size_t j = 0; j < nr; ++j) {
        c[i * ldc + j] =
            std::fma(alpha, acc[i * kNRHalf + j], beta * c[i * ldc + j]);
      }
    }
  }
}

}  // namespace

void sgemm_microkernel_avx2(std::size_t kc, const float* a_panel,
                            const float* b_panel, float alpha, float beta,
                            float* c, std::size_t ldc, std::size_t mr,
                            std::size_t nr) {
  // One pass over k per 8-column half; the second is skipped when nr <= 8.
  for (std::size_t h = 0; h < nr; h += kNRHalf) {
    half_tile(kc, a_panel, b_panel + h, alpha, beta, c + h, ldc, mr,
              std::min(kNRHalf, nr - h));
  }
}

double sdot_avx2(const float* x, const float* y, std::size_t n) {
  // Promote to double before accumulating (CG stability contract); four
  // independent double FMA chains.
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d x0 = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d y0 = _mm256_cvtps_pd(_mm_loadu_ps(y + i));
    const __m256d x1 = _mm256_cvtps_pd(_mm_loadu_ps(x + i + 4));
    const __m256d y1 = _mm256_cvtps_pd(_mm_loadu_ps(y + i + 4));
    acc0 = _mm256_fmadd_pd(x0, y0, acc0);
    acc1 = _mm256_fmadd_pd(x1, y1, acc1);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_add_pd(acc0, acc1));
  double acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    acc = std::fma(static_cast<double>(x[i]), static_cast<double>(y[i]), acc);
  }
  return acc;
}

void saxpy_avx2(float alpha, const float* x, float* y, std::size_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
    _mm256_storeu_ps(
        y + i + 8, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i + 8),
                                   _mm256_loadu_ps(y + i + 8)));
  }
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void sscal_avx2(float alpha, float* x, std::size_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

namespace {

/// blas::sigmoid on 8 lanes: the scalar steps, one instruction each.
__m256 sigmoid8(__m256 x) {
  using namespace sigmoid_const;
  const __m256 shifter = _mm256_set1_ps(kShifter);
  __m256 t = _mm256_xor_ps(x, _mm256_set1_ps(-0.0f));
  // min/max(bound, t) return t when t is NaN, as the scalar clamps do.
  t = _mm256_min_ps(_mm256_set1_ps(kClampHi), t);
  t = _mm256_max_ps(_mm256_set1_ps(kClampLo), t);
  const __m256 shifted = _mm256_fmadd_ps(t, _mm256_set1_ps(kLog2e), shifter);
  const __m256 n = _mm256_sub_ps(shifted, shifter);
  __m256 r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Hi), t);
  r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Lo), r);
  __m256 p = _mm256_fmadd_ps(_mm256_set1_ps(kC6), r, _mm256_set1_ps(kC5));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kC4));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kC3));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(0.5f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0f));
  const __m256i scale_bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_sub_epi32(_mm256_castps_si256(shifted),
                                        _mm256_castps_si256(shifter)),
                       _mm256_set1_epi32(static_cast<int>(kExpBias))),
      23);
  const __m256 e = _mm256_mul_ps(
      _mm256_mul_ps(p, _mm256_castsi256_ps(scale_bits)), _mm256_set1_ps(2.0f));
  const __m256 one = _mm256_set1_ps(1.0f);
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

/// Columns [j, j + lanes) of a tile row; a partial chunk is read and written
/// through a lane mask, so nothing past the tile is touched.
struct Chunk {
  __m256i mask;
  bool full;

  __m256 load(const float* p) const {
    return full ? _mm256_loadu_ps(p) : _mm256_maskload_ps(p, mask);
  }
  void store(float* p, __m256 v) const {
    if (full) {
      _mm256_storeu_ps(p, v);
    } else {
      _mm256_maskstore_ps(p, mask, v);
    }
  }
};

}  // namespace

void epilogue_tile_avx2(const GemmEpilogue& ep, float* c, std::size_t ldc,
                        std::size_t mr, std::size_t nr, std::size_t row0,
                        std::size_t col0, float* colsum_acc) {
  // Per 8-column chunk, each row takes steps 1-4 in epilogue_tile_scalar's
  // order, and the chunk's column sums add the rows in ascending order.
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::size_t j = 0; j < nr; j += 8) {
    const std::size_t lanes = std::min<std::size_t>(8, nr - j);
    const Chunk chunk{
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                           lane_ids),
        lanes == 8};
    const __m256 bias =
        ep.bias != nullptr ? chunk.load(ep.bias + col0 + j) : zero;
    __m256 sums =
        colsum_acc != nullptr ? chunk.load(colsum_acc + col0 + j) : zero;
    for (std::size_t i = 0; i < mr; ++i) {
      float* row = c + i * ldc + j;
      __m256 v = chunk.load(row);
      if (ep.bias != nullptr) v = _mm256_add_ps(v, bias);
      switch (ep.act) {
        case EpilogueAct::kNone:
          break;
        case EpilogueAct::kSigmoid:
          v = sigmoid8(v);
          break;
        case EpilogueAct::kTanh: {
          alignas(32) float lane[8];
          _mm256_store_ps(lane, v);
          for (std::size_t l = 0; l < lanes; ++l) lane[l] = std::tanh(lane[l]);
          v = _mm256_load_ps(lane);
          break;
        }
        case EpilogueAct::kReLU:
          v = _mm256_max_ps(v, zero);  // v > 0 ? v : +0
          break;
      }
      if (ep.deriv_aux.data != nullptr) {
        const __m256 a = chunk.load(ep.deriv_aux.data +
                                    (row0 + i) * ep.deriv_aux.ld + col0 + j);
        switch (ep.deriv_act) {
          case EpilogueAct::kNone:
            break;
          case EpilogueAct::kSigmoid:
            v = _mm256_mul_ps(v, _mm256_mul_ps(a, _mm256_sub_ps(one, a)));
            break;
          case EpilogueAct::kTanh:
            v = _mm256_mul_ps(v, _mm256_sub_ps(one, _mm256_mul_ps(a, a)));
            break;
          case EpilogueAct::kReLU:
            v = _mm256_andnot_ps(_mm256_cmp_ps(a, zero, _CMP_LE_OQ), v);
            break;
        }
      }
      if (colsum_acc != nullptr) sums = _mm256_add_ps(sums, v);
      chunk.store(row, v);
    }
    if (colsum_acc != nullptr) chunk.store(colsum_acc + col0 + j, sums);
  }
}

std::size_t topk_select_avx2(float* carrier, std::size_t n, float tau,
                             std::uint32_t index_base, std::uint32_t* idx,
                             float* val) {
  // 8-wide compare + movemask skips survivor-free groups in a couple of
  // cycles — at steady state ~99% of entries are below threshold, so the
  // sweep is bandwidth-bound instead of branch-bound. andnot with -0.0f
  // clears the sign bit (|v|); _CMP_GE_OQ is false for NaN, matching the
  // scalar std::fabs(v) >= tau rule bit for bit.
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 tv = _mm256_set1_ps(tau);
  std::size_t k = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(carrier + i);
    const __m256 mag = _mm256_andnot_ps(sign_mask, v);
    const int m = _mm256_movemask_ps(_mm256_cmp_ps(mag, tv, _CMP_GE_OQ));
    if (m == 0) continue;
    unsigned mm = static_cast<unsigned>(m);
    while (mm != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(mm));
      mm &= mm - 1;
      const std::size_t j = i + lane;
      idx[k] = index_base + static_cast<std::uint32_t>(j);
      val[k] = carrier[j];
      carrier[j] = 0.0f;
      ++k;
    }
  }
  for (; i < n; ++i) {
    const float v = carrier[i];
    if (std::fabs(v) >= tau) {
      idx[k] = index_base + static_cast<std::uint32_t>(i);
      val[k] = v;
      carrier[i] = 0.0f;
      ++k;
    }
  }
  return k;
}

}  // namespace bgqhf::blas

#endif  // BGQHF_HAVE_AVX2_TU
