// Compiled with -mavx2 -mfma (see CMakeLists.txt); nothing in here may be
// called before the runtime dispatcher has verified CPU support.
#include "blas/kernels_avx2.h"

#if defined(BGQHF_HAVE_AVX2_TU)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "blas/pack.h"

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
    acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
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
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void sscal_avx2(float alpha, float* x, std::size_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
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
