// Runtime CPU-feature dispatch for the SGEMM micro-kernel, the fused GEMM
// epilogue and the float level-1 kernels.
//
// The paper hand-tuned one kernel for one machine (QPX assembly, Sec. V-A);
// on commodity x86 we instead probe the CPU once at startup (cpuid via
// __builtin_cpu_supports) and select the best available implementation
// through a function-pointer table:
//
//   avx512 - 8x16 zmm SGEMM kernel plus the int8 VNNI dot kernel
//            (kernels_avx512.cpp). The SGEMM kernel is bitwise identical
//            to the avx2 one (same per-element FMA chain and write-back
//            rule, see kernels_avx512.h) and the level-1 entries are the
//            avx2 ones, so selecting avx512 never changes fp32 numerics.
//   avx2   - two 8x8 ymm FMA halves per 8x16 tile, requires AVX2+FMA
//            (kernels_avx2.cpp, built with -mavx2 -mfma in its own
//            translation unit)
//   sse2   - 4-wide mul/add kernel, x86-64 baseline (kernels_sse2.cpp)
//   scalar - portable reference (microkernel.h), always available
//
// Every table also carries the int8 micro-kernel (kernels_reduced.h): the
// scalar reference below avx512, the VNNI implementation there — bitwise
// identical, see kernels_reduced.h — and the fused GEMM epilogue
// (epilogue.h): the scalar reference on scalar/sse2, a ymm or zmm version
// on avx2/avx512, all three bitwise identical.
//
// The choice is overridable with BGQHF_FORCE_KERNEL=
// scalar|sse2|avx2|avx512|auto (read once, at first use) so tests and CI
// can pin the portable path, and programmatically with
// set_kernel_override() for the parity suite. Forcing a kernel the CPU
// cannot run falls back to the best supported one (CI portability); a name
// that is not a kernel at all throws util::ConfigError.
#pragma once

#include <cstddef>
#include <cstdint>

#include "blas/epilogue.h"
#include "blas/kernels_reduced.h"

namespace bgqhf::blas {

enum class KernelKind { kScalar, kSse2, kAvx2, kAvx512 };

const char* to_string(KernelKind k);

/// SGEMM micro-kernel contract (see microkernel.h): C tile (mr x nr, within
/// a kMR x kNR = 8x16 register block) = alpha * A_panel x B_panel + beta * C, with
/// beta == 0 meaning write-only.
using SgemmMicrokernelFn = void (*)(std::size_t kc, const float* a_panel,
                                    const float* b_panel, float alpha,
                                    float beta, float* c, std::size_t ldc,
                                    std::size_t mr, std::size_t nr);

/// Threshold select-and-drain for the top-k gradient compressor: every
/// entry of carrier[0..n) with |v| >= tau is appended to idx/val (as
/// index_base + i, in ascending index order) and zeroed in the carrier;
/// returns the number selected. idx/val must have room for n entries.
/// All implementations are bitwise-identical: selection is a pure float
/// comparison, and values are copied, never recomputed.
using TopkSelectFn = std::size_t (*)(float* carrier, std::size_t n,
                                     float tau, std::uint32_t index_base,
                                     std::uint32_t* idx, float* val);

/// Per-ISA kernel table. All entries are always populated (never null).
struct KernelTable {
  KernelKind kind = KernelKind::kScalar;
  SgemmMicrokernelFn sgemm_microkernel = nullptr;
  double (*sdot)(const float* x, const float* y, std::size_t n) = nullptr;
  void (*saxpy)(float alpha, const float* x, float* y,
                std::size_t n) = nullptr;
  void (*sscal)(float alpha, float* x, std::size_t n) = nullptr;
  TopkSelectFn topk_select = nullptr;
  /// int8 tile kernel (see kernels_reduced.h for the accumulate-only
  /// contract; the driver lives in gemm_mixed.cpp).
  Int8MicrokernelFn int8_microkernel = nullptr;
  /// Fused-epilogue tile, called by both GEMM drivers on each finished
  /// C tile.
  EpilogueTileFn epilogue_tile = nullptr;
};

/// True if this build/CPU can execute `k`.
bool kernel_supported(KernelKind k);

/// Best kernel the CPU supports (ignores the env override).
KernelKind detect_best_kernel();

/// The active table: resolved on first call from the CPU probe and the
/// BGQHF_FORCE_KERNEL environment variable, then cached.
const KernelTable& active_kernels();

/// Test hook: force the active table to `k` (must be supported; returns
/// false and leaves the table unchanged otherwise). Not thread-safe against
/// concurrent BLAS calls; intended for single-threaded test setup.
bool set_kernel_override(KernelKind k);

/// Test hook: drop any override and re-resolve from env + CPU probe.
void reset_kernel_dispatch();

}  // namespace bgqhf::blas
