// Compiled with -mavx512f -mavx512bw -mavx512vl -mavx512vnni
// -ffp-contract=off (see CMakeLists.txt), so every fused multiply-add in
// here is an explicit one; nothing in here may be called before the
// runtime dispatcher has verified CPU support.
#include "blas/kernels_avx512.h"

#if defined(BGQHF_HAVE_AVX512_TU)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "blas/kernels_reduced.h"
#include "blas/pack.h"
#include "blas/sigmoid.h"

namespace bgqhf::blas {

void sgemm_microkernel_avx512(std::size_t kc, const float* a_panel,
                              const float* b_panel, float alpha, float beta,
                              float* c, std::size_t ldc, std::size_t mr,
                              std::size_t nr) {
  // Full 8x16 tile in eight zmm accumulators: per k-step one 64-byte B load
  // and eight broadcast-FMAs. Each C element is the same ascending-k,
  // single-accumulator FMA chain as in sgemm_microkernel_avx2.
  __m512 r0 = _mm512_setzero_ps(), r1 = _mm512_setzero_ps();
  __m512 r2 = _mm512_setzero_ps(), r3 = _mm512_setzero_ps();
  __m512 r4 = _mm512_setzero_ps(), r5 = _mm512_setzero_ps();
  __m512 r6 = _mm512_setzero_ps(), r7 = _mm512_setzero_ps();
  const float* a = a_panel;
  const float* b = b_panel;
  for (std::size_t k = 0; k < kc; ++k, a += kMR, b += kNR) {
    const __m512 bv = _mm512_loadu_ps(b);
    r0 = _mm512_fmadd_ps(_mm512_set1_ps(a[0]), bv, r0);
    r1 = _mm512_fmadd_ps(_mm512_set1_ps(a[1]), bv, r1);
    r2 = _mm512_fmadd_ps(_mm512_set1_ps(a[2]), bv, r2);
    r3 = _mm512_fmadd_ps(_mm512_set1_ps(a[3]), bv, r3);
    r4 = _mm512_fmadd_ps(_mm512_set1_ps(a[4]), bv, r4);
    r5 = _mm512_fmadd_ps(_mm512_set1_ps(a[5]), bv, r5);
    r6 = _mm512_fmadd_ps(_mm512_set1_ps(a[6]), bv, r6);
    r7 = _mm512_fmadd_ps(_mm512_set1_ps(a[7]), bv, r7);
  }

  const __m512 rows[kMR] = {r0, r1, r2, r3, r4, r5, r6, r7};
  const __m512 av = _mm512_set1_ps(alpha);
  // Columns [0, nr) of each row; masked lanes are neither read nor written.
  const __mmask16 cols = static_cast<__mmask16>((1u << nr) - 1u);
  if (beta == 0.0f) {
    for (std::size_t i = 0; i < mr; ++i) {
      _mm512_mask_storeu_ps(c + i * ldc, cols, _mm512_mul_ps(av, rows[i]));
    }
    return;
  }
  const __m512 bv = _mm512_set1_ps(beta);
  if (mr == kMR && nr == kNR) {
    for (std::size_t i = 0; i < kMR; ++i) {
      _mm512_storeu_ps(c + i * ldc,
                       _mm512_fmadd_ps(bv, _mm512_loadu_ps(c + i * ldc),
                                       _mm512_mul_ps(av, rows[i])));
    }
    return;
  }
  // Fringe tile (mr < 8 or nr < 16): the AVX2 kernel's rule per 8-column
  // half. Only the left half can be a full 8x8 block here; it takes
  // fma(beta, C, alpha * acc), the rest fma(alpha, acc, beta * C).
  const __mmask16 full = (mr == kMR && nr >= kNRHalf) ? 0x00FF : 0;
  for (std::size_t i = 0; i < mr; ++i) {
    const __m512 cv = _mm512_maskz_loadu_ps(cols, c + i * ldc);
    const __m512 fused_c = _mm512_fmadd_ps(bv, cv, _mm512_mul_ps(av, rows[i]));
    const __m512 fused_acc =
        _mm512_fmadd_ps(av, rows[i], _mm512_mul_ps(bv, cv));
    _mm512_mask_storeu_ps(c + i * ldc, cols,
                          _mm512_mask_blend_ps(full, fused_acc, fused_c));
  }
}

namespace {

/// blas::sigmoid on 16 lanes: the scalar steps, one instruction each.
__m512 sigmoid16(__m512 x) {
  using namespace sigmoid_const;
  const __m512 shifter = _mm512_set1_ps(kShifter);
  // Negation as a sign-bit flip (_mm512_xor_ps would need AVX512DQ).
  __m512 t = _mm512_castsi512_ps(
      _mm512_xor_si512(_mm512_castps_si512(x), _mm512_set1_epi32(INT32_MIN)));
  // min/max(bound, t) return t when t is NaN, as the scalar clamps do.
  t = _mm512_min_ps(_mm512_set1_ps(kClampHi), t);
  t = _mm512_max_ps(_mm512_set1_ps(kClampLo), t);
  const __m512 shifted = _mm512_fmadd_ps(t, _mm512_set1_ps(kLog2e), shifter);
  const __m512 n = _mm512_sub_ps(shifted, shifter);
  __m512 r = _mm512_fmadd_ps(n, _mm512_set1_ps(-kLn2Hi), t);
  r = _mm512_fmadd_ps(n, _mm512_set1_ps(-kLn2Lo), r);
  __m512 p = _mm512_fmadd_ps(_mm512_set1_ps(kC6), r, _mm512_set1_ps(kC5));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kC4));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kC3));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(0.5f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0f));
  const __m512i scale_bits = _mm512_slli_epi32(
      _mm512_add_epi32(_mm512_sub_epi32(_mm512_castps_si512(shifted),
                                        _mm512_castps_si512(shifter)),
                       _mm512_set1_epi32(static_cast<int>(kExpBias))),
      23);
  const __m512 e = _mm512_mul_ps(
      _mm512_mul_ps(p, _mm512_castsi512_ps(scale_bits)), _mm512_set1_ps(2.0f));
  const __m512 one = _mm512_set1_ps(1.0f);
  return _mm512_div_ps(one, _mm512_add_ps(one, e));
}

}  // namespace

void epilogue_tile_avx512(const GemmEpilogue& ep, float* c, std::size_t ldc,
                          std::size_t mr, std::size_t nr, std::size_t row0,
                          std::size_t col0, float* colsum_acc) {
  // Per 16-column chunk, each row takes steps 1-4 in epilogue_tile_scalar's
  // order, and the chunk's column sums add the rows in ascending order.
  // Masked lanes are neither read nor written.
  const __m512 zero = _mm512_setzero_ps();
  const __m512 one = _mm512_set1_ps(1.0f);
  for (std::size_t j = 0; j < nr; j += 16) {
    const std::size_t lanes = std::min<std::size_t>(16, nr - j);
    const __mmask16 cols = static_cast<__mmask16>((1u << lanes) - 1u);
    const __m512 bias = ep.bias != nullptr
                            ? _mm512_maskz_loadu_ps(cols, ep.bias + col0 + j)
                            : zero;
    __m512 sums = colsum_acc != nullptr
                      ? _mm512_maskz_loadu_ps(cols, colsum_acc + col0 + j)
                      : zero;
    for (std::size_t i = 0; i < mr; ++i) {
      float* row = c + i * ldc + j;
      __m512 v = _mm512_maskz_loadu_ps(cols, row);
      if (ep.bias != nullptr) v = _mm512_add_ps(v, bias);
      switch (ep.act) {
        case EpilogueAct::kNone:
          break;
        case EpilogueAct::kSigmoid:
          v = sigmoid16(v);
          break;
        case EpilogueAct::kTanh: {
          alignas(64) float lane[16];
          _mm512_store_ps(lane, v);
          for (std::size_t l = 0; l < lanes; ++l) lane[l] = std::tanh(lane[l]);
          v = _mm512_load_ps(lane);
          break;
        }
        case EpilogueAct::kReLU:
          v = _mm512_max_ps(v, zero);  // v > 0 ? v : +0
          break;
      }
      if (ep.deriv_aux.data != nullptr) {
        const __m512 a = _mm512_maskz_loadu_ps(
            cols,
            ep.deriv_aux.data + (row0 + i) * ep.deriv_aux.ld + col0 + j);
        switch (ep.deriv_act) {
          case EpilogueAct::kNone:
            break;
          case EpilogueAct::kSigmoid:
            v = _mm512_mul_ps(v, _mm512_mul_ps(a, _mm512_sub_ps(one, a)));
            break;
          case EpilogueAct::kTanh:
            v = _mm512_mul_ps(v, _mm512_sub_ps(one, _mm512_mul_ps(a, a)));
            break;
          case EpilogueAct::kReLU:
            v = _mm512_mask_mov_ps(
                v, _mm512_cmp_ps_mask(a, zero, _CMP_LE_OQ), zero);
            break;
        }
      }
      if (colsum_acc != nullptr) sums = _mm512_add_ps(sums, v);
      _mm512_mask_storeu_ps(row, cols, v);
    }
    if (colsum_acc != nullptr) {
      _mm512_mask_storeu_ps(colsum_acc + col0 + j, cols, sums);
    }
  }
}

namespace {

inline __m512i broadcast_dword(const std::uint8_t* p) {
  std::int32_t d;
  std::memcpy(&d, p, sizeof(d));
  return _mm512_set1_epi32(d);
}

}  // namespace

void int8_microkernel_avx512(std::size_t kgroups, const std::uint8_t* a_panel,
                             const std::int8_t* b_panel, std::int32_t* acc) {
  // Per k-group: one 64-byte B load (16 columns x 4 k-values) and eight
  // vpdpbusd, each broadcasting one A row's 4 bytes as a dword. vpdpbusd
  // widens u8 x s8 products to int32 and accumulates without intermediate
  // saturation, so this is exact integer arithmetic.
  __m512i r0 = _mm512_loadu_si512(acc + 0 * kNRmx);
  __m512i r1 = _mm512_loadu_si512(acc + 1 * kNRmx);
  __m512i r2 = _mm512_loadu_si512(acc + 2 * kNRmx);
  __m512i r3 = _mm512_loadu_si512(acc + 3 * kNRmx);
  __m512i r4 = _mm512_loadu_si512(acc + 4 * kNRmx);
  __m512i r5 = _mm512_loadu_si512(acc + 5 * kNRmx);
  __m512i r6 = _mm512_loadu_si512(acc + 6 * kNRmx);
  __m512i r7 = _mm512_loadu_si512(acc + 7 * kNRmx);
  const std::uint8_t* a = a_panel;
  const std::int8_t* b = b_panel;
  for (std::size_t g = 0; g < kgroups;
       ++g, a += kMRmx * kKGroup, b += kNRmx * kKGroup) {
    const __m512i bv = _mm512_loadu_si512(b);
    r0 = _mm512_dpbusd_epi32(r0, broadcast_dword(a + 0 * kKGroup), bv);
    r1 = _mm512_dpbusd_epi32(r1, broadcast_dword(a + 1 * kKGroup), bv);
    r2 = _mm512_dpbusd_epi32(r2, broadcast_dword(a + 2 * kKGroup), bv);
    r3 = _mm512_dpbusd_epi32(r3, broadcast_dword(a + 3 * kKGroup), bv);
    r4 = _mm512_dpbusd_epi32(r4, broadcast_dword(a + 4 * kKGroup), bv);
    r5 = _mm512_dpbusd_epi32(r5, broadcast_dword(a + 5 * kKGroup), bv);
    r6 = _mm512_dpbusd_epi32(r6, broadcast_dword(a + 6 * kKGroup), bv);
    r7 = _mm512_dpbusd_epi32(r7, broadcast_dword(a + 7 * kKGroup), bv);
  }
  _mm512_storeu_si512(acc + 0 * kNRmx, r0);
  _mm512_storeu_si512(acc + 1 * kNRmx, r1);
  _mm512_storeu_si512(acc + 2 * kNRmx, r2);
  _mm512_storeu_si512(acc + 3 * kNRmx, r3);
  _mm512_storeu_si512(acc + 4 * kNRmx, r4);
  _mm512_storeu_si512(acc + 5 * kNRmx, r5);
  _mm512_storeu_si512(acc + 6 * kNRmx, r6);
  _mm512_storeu_si512(acc + 7 * kNRmx, r7);
}

}  // namespace bgqhf::blas

#endif  // BGQHF_HAVE_AVX512_TU
