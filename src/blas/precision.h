// Reduced-precision compute tier selection and bf16 conversion helpers.
//
// The paper's worker hot path is fp32 GEMM; the remaining per-FLOP
// multiplier on commodity x86 is narrower storage types. Three tiers:
//
//   fp32 - today's path, bitwise unchanged (the default)
//   bf16 - GEMM stays fp32; the collectives ship bf16 wire bodies
//          (simmpi/compress.h, CompressOptions::bf16_wire). A bf16-storage
//          GEMM kernel would run the same eight FMAs per k step as the
//          fp32 AVX-512 one plus a widen; it measured 0.79-1.00x fp32 on
//          every bench_gemm shape.
//   int8 - operands quantized to 8-bit integers at pack time with
//          per-row (A) / per-column (B) max-abs scales, exact int32
//          accumulation, one fp32 dequant at writeback
//
// The tier is a process-wide mode (BGQHF_PRECISION via util::RuntimeEnv),
// resolved once and cached exactly like the kernel dispatch; tests swap it
// with set_precision_override / reset_precision.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace bgqhf::blas {

enum class Precision { kFp32 = 0, kBf16, kInt8 };

const char* to_string(Precision p);

/// "", "fp32" -> kFp32; "bf16" -> kBf16; "int8" -> kInt8; anything else
/// throws util::ConfigError (typos must be loud, like BGQHF_COMPRESS).
Precision parse_precision(const std::string& s);

/// The active tier: resolved on first call from BGQHF_PRECISION, cached.
Precision active_precision();

/// Test hook: force the active tier. Not thread-safe against concurrent
/// BLAS calls; single-threaded test setup only.
void set_precision_override(Precision p);

/// Test hook: drop any override and re-resolve from the environment.
void reset_precision();

// ---- bfloat16 conversion ----
//
// bf16 is the top 16 bits of an IEEE fp32: same exponent range, 8-bit
// significand. Conversion rounds to nearest-even; NaNs are quieted so a
// NaN payload never truncates to infinity.

inline std::uint16_t float_to_bf16(float f) {
  // Branchless select so the pack loops auto-vectorize: both arms are pure
  // integer ops, the NaN case (quieted, never truncated to inf) is a blend.
  std::uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  const std::uint32_t lsb = (x >> 16) & 1u;
  const std::uint32_t rounded = x + 0x7FFFu + lsb;  // nearest, ties to even
  const bool is_nan = (x & 0x7FFFFFFFu) > 0x7F800000u;
  return static_cast<std::uint16_t>(is_nan ? ((x >> 16) | 0x0040u)
                                           : (rounded >> 16));
}

inline float bf16_to_float(std::uint16_t h) {
  const std::uint32_t x = static_cast<std::uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &x, sizeof(f));
  return f;
}

/// fp32 -> bf16 -> fp32 round trip (the value a bf16 store would yield).
inline float bf16_round(float f) { return bf16_to_float(float_to_bf16(f)); }

}  // namespace bgqhf::blas
