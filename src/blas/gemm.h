// Blocked, threaded GEMM: C = alpha * op(A) * op(B) + beta * C.
//
// Structure follows the paper's Sec. V-A (and the BLIS work it cites):
// NC/KC/MC cache blocking, packed stride-one panels, an 8x16 register-block
// micro-kernel selected by runtime CPU dispatch (dispatch.h: AVX-512,
// AVX2+FMA, SSE2, or scalar reference), and a persistent thread pool standing in for
// the BG/Q OpenMP runtime. Per (jc, pc) macro-step the engine:
//
//   1. packs the shared B macro-panel and all A row blocks cooperatively
//      across the pool (the analogue of the paper's implicitly synchronized
//      4-thread packing, Sec. V-A3);
//   2. runs a 2-D (ic, jr) task grid over the packed panels, so tall-skinny
//      DNN shapes (few row blocks, many columns) still expose enough
//      parallelism to fill the pool;
//   3. folds beta into the first k-block's micro-kernel invocation (no
//      serial scale_c pre-pass over C) and, on the last k-block, applies an
//      optional fused epilogue (bias add + activation + derivative mask +
//      bias-gradient column reduction) to each C tile while it is hot.
//
// SGEMM (float) is the configuration the paper tuned hardest — DNN
// training is single precision; double uses the scalar reference kernel.
#pragma once

#include <cstddef>

#include "blas/epilogue.h"
#include "blas/matrix.h"
#include "util/thread_pool.h"

namespace bgqhf::blas {

enum class Trans { kNo, kYes };

/// Cache-blocking parameters; defaults target a ~32 KB L1 / 256 KB L2 class
/// core. Exposed so tests and the tuning bench can sweep them.
struct GemmBlocking {
  std::size_t mc = 128;
  std::size_t kc = 256;
  std::size_t nc = 2048;
};

/// General matrix multiply. Views describe the *stored* matrices; ta/tb
/// select op(). Shapes must satisfy op(A): m x k, op(B): k x n, C: m x n
/// (checked with assert). `pool` == nullptr runs serially.
template <typename T>
void gemm(Trans ta, Trans tb, T alpha, ConstMatrixView<T> a,
          ConstMatrixView<T> b, T beta, MatrixView<T> c,
          util::ThreadPool* pool = nullptr,
          const GemmBlocking& blocking = GemmBlocking{});

/// fp32 GEMM with a fused elementwise epilogue (see epilogue.h) applied to
/// each C tile right after its final k-block update. Produces results
/// identical to gemm() followed by the equivalent separate sweeps, serial
/// or threaded, on every kernel tier, but touches C one time fewer.
void gemm_fused(Trans ta, Trans tb, float alpha, ConstMatrixView<float> a,
                ConstMatrixView<float> b, float beta, MatrixView<float> c,
                const GemmEpilogue& epilogue,
                util::ThreadPool* pool = nullptr,
                const GemmBlocking& blocking = GemmBlocking{});

/// Reference triple loop (used by tests and the bench baseline).
template <typename T>
void gemm_naive(Trans ta, Trans tb, T alpha, ConstMatrixView<T> a,
                ConstMatrixView<T> b, T beta, MatrixView<T> c);

/// y = alpha * op(A) * x + beta * y. The float instantiation routes through
/// the dispatched SIMD level-1 kernels.
template <typename T>
void gemv(Trans ta, T alpha, ConstMatrixView<T> a, const T* x, T beta, T* y);

}  // namespace bgqhf::blas
