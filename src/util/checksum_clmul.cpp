// CRC32 by carry-less-multiply folding, after Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction" (Intel,
// 2009), in the bit-reflected domain of polynomial 0xEDB88320.
//
// Four 128-bit accumulators each fold forward by 512 bits per 64-byte
// step (multiply the low and high qwords by x^(512±32) mod P and XOR in
// the next block), then collapse into one by 128-bit folds, reduce
// 128 -> 64 -> 32 bits, and finish with a Barrett reduction. The folding
// constants below are those derived in the paper's appendix for the
// reflected IEEE 802.3 polynomial, each pre-shifted by one bit.
#include "util/checksum_clmul.h"

#include <immintrin.h>

namespace bgqhf::util::detail {
namespace {

inline __m128i fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

inline __m128i load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

}  // namespace

std::uint32_t crc32_clmul_update(std::uint32_t reg, const unsigned char* p,
                                 std::size_t len) {
  // Built inside the function, not at namespace scope, so no SSE4/PCLMUL
  // instruction runs during static initialisation on hosts without them.
  // x^(4*128+32) mod P, x^(4*128-32) mod P: fold by 512 bits.
  const __m128i kFold512 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  // x^(128+32) mod P, x^(128-32) mod P: fold by 128 bits.
  const __m128i kFold128 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  // x^64 mod P: 64 -> 32-bit reduction.
  const __m128i kFold64 = _mm_set_epi64x(0, 0x0163cd6124);
  // P' (reflected polynomial, 33 bits) and mu = floor(x^64 / P) for Barrett.
  const __m128i kBarrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);

  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(reg)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  len -= 64;

  for (; len >= 64; p += 64, len -= 64) {
    x0 = fold(x0, kFold512, load(p));
    x1 = fold(x1, kFold512, load(p + 16));
    x2 = fold(x2, kFold512, load(p + 32));
    x3 = fold(x3, kFold512, load(p + 48));
  }

  x0 = fold(x0, kFold128, x1);
  x0 = fold(x0, kFold128, x2);
  x0 = fold(x0, kFold128, x3);
  for (; len >= 16; p += 16, len -= 16) x0 = fold(x0, kFold128, load(p));

  // 128 -> 64 bits: the low qword times x^(128-32) joins the high qword.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, kFold128, 0x10));
  // 64 -> 32 bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), kFold64,
                                          0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), kBarrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), kBarrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

}  // namespace bgqhf::util::detail
