// AVX-512 GEMM micro-kernels: the fp32 SGEMM kernel and the int8 VNNI
// kernel (same accumulate-only contract as kernels_reduced.h).
//
// Design notes (why each is bitwise identical to the tier it replaces):
//
//   fp32: the full 8x16 C tile lives in eight zmm accumulators; each
//   k-step is one 64-byte B load plus eight broadcast-FMAs. Every C element
//   is therefore the same ascending-k, single-accumulator FMA chain as in
//   the AVX2 kernel, which computes the same tile as two 8x8 halves. The
//   write-back applies the AVX2 rule per 8-column half: fma(beta, C,
//   alpha*acc) on a full 8x8 half, fma(alpha, acc, beta*C) on a fringe,
//   alpha*acc when beta == 0. Selecting the avx512 tier thus never changes
//   an fp32 result.
//
//   int8: vpdpbusd(u8, s8) accumulates 4-wide dot products into int32
//   without intermediate saturation (unlike the vpmaddubsw emulation), so
//   the arithmetic is exact integer math — identical to scalar by
//   definition.
//
// Compiled with -mavx512{f,bw,vl,vnni} in its own translation unit; the
// dispatcher (dispatch.cpp) only selects these after a runtime cpuid probe.
#pragma once

#include <cstddef>
#include <cstdint>

#include "blas/epilogue.h"

namespace bgqhf::blas {

#if defined(BGQHF_HAVE_AVX512_TU)

/// 8x16 register-blocked SGEMM kernel; same contract as microkernel<float>
/// (beta == 0 writes without reading C).
void sgemm_microkernel_avx512(std::size_t kc, const float* a_panel,
                              const float* b_panel, float alpha, float beta,
                              float* c, std::size_t ldc, std::size_t mr,
                              std::size_t nr);

void int8_microkernel_avx512(std::size_t kgroups, const std::uint8_t* a_panel,
                             const std::int8_t* b_panel, std::int32_t* acc);

/// Fused-epilogue tile (epilogue.h), bitwise equal to epilogue_tile_scalar.
void epilogue_tile_avx512(const GemmEpilogue& ep, float* c, std::size_t ldc,
                          std::size_t mr, std::size_t nr, std::size_t row0,
                          std::size_t col0, float* colsum_acc);

#endif  // BGQHF_HAVE_AVX512_TU

}  // namespace bgqhf::blas
