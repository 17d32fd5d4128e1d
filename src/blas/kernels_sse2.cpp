#include "blas/kernels_sse2.h"

#if defined(__SSE2__)

#include <emmintrin.h>

#include <cmath>

#include "blas/pack.h"

namespace bgqhf::blas {

namespace {

/// Write back acc (an 8x16 tile held in a stack buffer) into C, applying
/// alpha/beta. Kept scalar: O(128) against the O(128*kc) accumulate loop.
inline void writeback(const float* acc, float alpha, float beta, float* c,
                      std::size_t ldc, std::size_t mr, std::size_t nr) {
  if (beta == 0.0f) {
    for (std::size_t i = 0; i < mr; ++i) {
      for (std::size_t j = 0; j < nr; ++j) {
        c[i * ldc + j] = alpha * acc[i * kNR + j];
      }
    }
  } else {
    for (std::size_t i = 0; i < mr; ++i) {
      for (std::size_t j = 0; j < nr; ++j) {
        c[i * ldc + j] = alpha * acc[i * kNR + j] + beta * c[i * ldc + j];
      }
    }
  }
}

}  // namespace

void sgemm_microkernel_sse2(std::size_t kc, const float* a_panel,
                            const float* b_panel, float alpha, float beta,
                            float* c, std::size_t ldc, std::size_t mr,
                            std::size_t nr) {
  alignas(16) float acc[kMR * kNR];
  // One pass over k per 4-column quarter of the panel, so the live set (8
  // accumulators + b + broadcast a_i) fits the 16 xmm registers. Quarters
  // past nr are skipped; the writeback never reads them.
  for (std::size_t q = 0; q < nr; q += 4) {
    __m128 r0 = _mm_setzero_ps(), r1 = _mm_setzero_ps();
    __m128 r2 = _mm_setzero_ps(), r3 = _mm_setzero_ps();
    __m128 r4 = _mm_setzero_ps(), r5 = _mm_setzero_ps();
    __m128 r6 = _mm_setzero_ps(), r7 = _mm_setzero_ps();
    const float* b = b_panel + q;
    const float* a = a_panel;
    for (std::size_t k = 0; k < kc; ++k, a += kMR, b += kNR) {
      const __m128 bv = _mm_loadu_ps(b);
      r0 = _mm_add_ps(r0, _mm_mul_ps(_mm_set1_ps(a[0]), bv));
      r1 = _mm_add_ps(r1, _mm_mul_ps(_mm_set1_ps(a[1]), bv));
      r2 = _mm_add_ps(r2, _mm_mul_ps(_mm_set1_ps(a[2]), bv));
      r3 = _mm_add_ps(r3, _mm_mul_ps(_mm_set1_ps(a[3]), bv));
      r4 = _mm_add_ps(r4, _mm_mul_ps(_mm_set1_ps(a[4]), bv));
      r5 = _mm_add_ps(r5, _mm_mul_ps(_mm_set1_ps(a[5]), bv));
      r6 = _mm_add_ps(r6, _mm_mul_ps(_mm_set1_ps(a[6]), bv));
      r7 = _mm_add_ps(r7, _mm_mul_ps(_mm_set1_ps(a[7]), bv));
    }
    _mm_store_ps(acc + 0 * kNR + q, r0);
    _mm_store_ps(acc + 1 * kNR + q, r1);
    _mm_store_ps(acc + 2 * kNR + q, r2);
    _mm_store_ps(acc + 3 * kNR + q, r3);
    _mm_store_ps(acc + 4 * kNR + q, r4);
    _mm_store_ps(acc + 5 * kNR + q, r5);
    _mm_store_ps(acc + 6 * kNR + q, r6);
    _mm_store_ps(acc + 7 * kNR + q, r7);
  }
  writeback(acc, alpha, beta, c, ldc, mr, nr);
}

double sdot_sse2(const float* x, const float* y, std::size_t n) {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 xv = _mm_loadu_ps(x + i);
    const __m128 yv = _mm_loadu_ps(y + i);
    const __m128d xlo = _mm_cvtps_pd(xv);
    const __m128d ylo = _mm_cvtps_pd(yv);
    const __m128d xhi = _mm_cvtps_pd(_mm_movehl_ps(xv, xv));
    const __m128d yhi = _mm_cvtps_pd(_mm_movehl_ps(yv, yv));
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(xlo, ylo));
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(xhi, yhi));
  }
  alignas(16) double lanes[2];
  _mm_store_pd(lanes, _mm_add_pd(acc0, acc1));
  double acc = lanes[0] + lanes[1];
  for (; i < n; ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return acc;
}

void saxpy_sse2(float alpha, const float* x, float* y, std::size_t n) {
  const __m128 av = _mm_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i),
                                    _mm_mul_ps(av, _mm_loadu_ps(x + i))));
    _mm_storeu_ps(y + i + 4,
                  _mm_add_ps(_mm_loadu_ps(y + i + 4),
                             _mm_mul_ps(av, _mm_loadu_ps(x + i + 4))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void sscal_sse2(float alpha, float* x, std::size_t n) {
  const __m128 av = _mm_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(x + i, _mm_mul_ps(av, _mm_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

std::size_t topk_select_sse2(float* carrier, std::size_t n, float tau,
                             std::uint32_t index_base, std::uint32_t* idx,
                             float* val) {
  // Vector compare + movemask skips 4-entry groups with no survivor; the
  // sparse hits are drained scalar so output stays in ascending order.
  // andnot with -0.0f clears the sign bit (|v|), and cmpge is false for
  // NaN, matching the scalar std::fabs(v) >= tau rule bit for bit.
  const __m128 sign_mask = _mm_set1_ps(-0.0f);
  const __m128 tv = _mm_set1_ps(tau);
  std::size_t k = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 v = _mm_loadu_ps(carrier + i);
    const __m128 mag = _mm_andnot_ps(sign_mask, v);
    int m = _mm_movemask_ps(_mm_cmpge_ps(mag, tv));
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

#endif  // __SSE2__
