// SSE2 SGEMM micro-kernel and level-1 kernels.
//
// SSE2 is part of the x86-64 baseline ABI, so these compile in an ordinary
// translation unit with no extra flags and serve as the guaranteed-SIMD
// floor on every x86-64 host; the AVX2/FMA variants (kernels_avx2.h) are
// selected over them at runtime when the CPU supports it. The 4-wide
// mul/add pipeline is the closest x86 analogue of the paper's QPX 4-wide
// FMA unit (Sec. V-A2).
#pragma once

#include <cstddef>
#include <cstdint>

namespace bgqhf::blas {

#if defined(__SSE2__)
#define BGQHF_HAVE_SSE2_KERNELS 1

/// 8x16 register-blocked SGEMM kernel; same contract as microkernel<float>
/// (beta == 0 writes without reading C).
void sgemm_microkernel_sse2(std::size_t kc, const float* a_panel,
                            const float* b_panel, float alpha, float beta,
                            float* c, std::size_t ldc, std::size_t mr,
                            std::size_t nr);

/// dot(x, y) accumulated in double (CG numerical-stability contract).
double sdot_sse2(const float* x, const float* y, std::size_t n);

/// y += alpha * x
void saxpy_sse2(float alpha, const float* x, float* y, std::size_t n);

/// x *= alpha
void sscal_sse2(float alpha, float* x, std::size_t n);

/// Top-k threshold select-and-drain (see dispatch.h TopkSelectFn).
std::size_t topk_select_sse2(float* carrier, std::size_t n, float tau,
                             std::uint32_t index_base, std::uint32_t* idx,
                             float* val);

#endif  // __SSE2__

}  // namespace bgqhf::blas
