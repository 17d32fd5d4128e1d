// The logistic sigmoid 1 / (1 + e^-x) of every sigmoid layer: the fused
// GEMM epilogue on every tier, nn::apply_activation and the RBM. One
// repo-owned e^t instead of glibc's scalar expf lets the AVX2 and AVX-512
// epilogues compute the same bits as the scalar reference, 8 or 16 lanes
// at a time.
//
// With t = -x:
//   1. clamp t to [kClampLo, kClampHi]: no x the clamp moves changes its
//      result, which is exactly 1 or 0 (an overflowing e^t) either way;
//   2. n = round(t * log2 e), found by adding the 1.5 * 2^23 shifter in one
//      fma (so n also sits in the low mantissa bits, with no float-to-int
//      conversion), and r = t - n ln2 in two Cody–Waite fma steps;
//   3. e^r ~ p(r), a degree-6 polynomial 1 + r + r^2/2 + c3 r^3 + ... + c6
//      r^6 (Chebyshev-fitted on |r| <= ln2/2), in Horner fma steps;
//   4. e^t = (p * 2^(n-1)) * 2, built from n's exponent bits; both
//      multiplies are exact, and the second reaches +inf where e^t
//      overflows, as expf does;
//   5. one IEEE divide, 1 / (1 + e^t).
// Every multiply-add is an explicit fma, so compiler contraction cannot
// move a rounding. Over every float in [-88, 88] the result is within
// 2 ULP of 1 / (1 + exp(-x)) in double (as the expf formula was), it is
// exactly 0 and exactly 1 on the same inputs as that formula, and NaN in
// gives NaN out.
#pragma once

namespace bgqhf::blas {

/// The scalar sigmoid; the vector epilogues repeat its steps lane-wise.
float sigmoid(float x);

/// blas::sigmoid's constants, shared with the vector epilogues.
namespace sigmoid_const {
inline constexpr float kClampHi = 89.0f;   // e^89 overflows float
inline constexpr float kClampLo = -80.0f;  // 1 + e^-80 rounds to 1
inline constexpr float kLog2e = 0x1.715476p+0f;
inline constexpr float kShifter = 0x1.8p+23f;
inline constexpr float kLn2Hi = 0x1.62e400p-1f;
inline constexpr float kLn2Lo = 0x1.7f7d1cp-20f;
inline constexpr float kC3 = 0x1.5554dep-3f;
inline constexpr float kC4 = 0x1.55551ap-5f;
inline constexpr float kC5 = 0x1.120b62p-7f;
inline constexpr float kC6 = 0x1.6d10fcp-10f;
/// Added to the shifter-relative n to bias the exponent of 2^(n-1).
inline constexpr unsigned kExpBias = 126u;
}  // namespace sigmoid_const

}  // namespace bgqhf::blas
