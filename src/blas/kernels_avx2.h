// AVX2/FMA SGEMM micro-kernel and level-1 kernels.
//
// The x86 analogue of the paper's hand-scheduled QPX inner kernel
// (Sec. V-A2): an 8x8 C half-tile lives in eight ymm accumulators, each
// k-step is one 8-wide B load plus eight broadcast-FMA updates, and the
// packed stride-one panels guarantee every load is sequential. A 16-wide
// packed panel (pack.h) is walked as two such halves. Definitions
// live in kernels_avx2.cpp, which CMake compiles with -mavx2 -mfma so the
// rest of the binary stays runnable on baseline x86-64; the dispatcher
// (dispatch.cpp) only selects these after a runtime cpuid probe.
#pragma once

#include <cstddef>
#include <cstdint>

#include "blas/epilogue.h"

namespace bgqhf::blas {

// The AVX2 translation unit is only compiled on x86 targets (see
// src/blas/CMakeLists.txt, which defines BGQHF_HAVE_AVX2_TU there).
#if defined(BGQHF_HAVE_AVX2_TU)

/// 8x16 SGEMM kernel run as two 8x8 register-blocked halves; same contract
/// as microkernel<float> (beta == 0 writes without reading C). Per half:
/// fma(beta, C, alpha * acc) on a full 8x8 half, fma(alpha, acc, beta * C)
/// on a fringe, alpha * acc when beta == 0.
void sgemm_microkernel_avx2(std::size_t kc, const float* a_panel,
                            const float* b_panel, float alpha, float beta,
                            float* c, std::size_t ldc, std::size_t mr,
                            std::size_t nr);

/// dot(x, y) accumulated in double (CG numerical-stability contract).
double sdot_avx2(const float* x, const float* y, std::size_t n);

/// y += alpha * x
void saxpy_avx2(float alpha, const float* x, float* y, std::size_t n);

/// x *= alpha
void sscal_avx2(float alpha, float* x, std::size_t n);

/// Top-k threshold select-and-drain (see dispatch.h TopkSelectFn).
std::size_t topk_select_avx2(float* carrier, std::size_t n, float tau,
                             std::uint32_t index_base, std::uint32_t* idx,
                             float* val);

/// Fused-epilogue tile (epilogue.h), bitwise equal to epilogue_tile_scalar.
void epilogue_tile_avx2(const GemmEpilogue& ep, float* c, std::size_t ldc,
                        std::size_t mr, std::size_t nr, std::size_t row0,
                        std::size_t col0, float* colsum_acc);

#endif  // BGQHF_HAVE_AVX2_TU

}  // namespace bgqhf::blas
