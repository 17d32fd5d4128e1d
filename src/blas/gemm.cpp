#include "blas/gemm.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <type_traits>

#include "blas/dispatch.h"
#include "blas/gemm_mixed.h"
#include "blas/microkernel.h"
#include "blas/pack.h"
#include "blas/precision.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "util/memory_pool.h"
#include "util/timer.h"

namespace bgqhf::blas {

namespace {

// Column width of one pack_b work item and of one (ic, jr) compute task.
// Multiples of kNR; 2-D task grids stay fine-grained enough to fill the
// pool on tall-skinny DNN shapes without per-tile scheduling overhead.
constexpr std::size_t kPackSliceCols = 256;
constexpr std::size_t kJrSliceCols = 128;

// Cap on row blocks packed at once: bounds the shared packed-A buffer at
// kMaxGroupBlocks * mc * kc elements (4 MB at the default blocking).
constexpr std::size_t kMaxGroupBlocks = 64;

template <typename T>
std::size_t op_rows(ConstMatrixView<T> v, Trans t) {
  return t == Trans::kNo ? v.rows : v.cols;
}
template <typename T>
std::size_t op_cols(ConstMatrixView<T> v, Trans t) {
  return t == Trans::kNo ? v.cols : v.rows;
}

template <typename T>
void scale_c(T beta, MatrixView<T> c) {
  if (beta == T{1}) return;
  for (std::size_t i = 0; i < c.rows; ++i) {
    T* row = c.data + i * c.ld;
    if (beta == T{}) {
      std::fill(row, row + c.cols, T{});
    } else {
      for (std::size_t j = 0; j < c.cols; ++j) row[j] *= beta;
    }
  }
}

/// Serial loop when pool is null (or trivial), pool->parallel_for otherwise.
void run_tasks(util::ThreadPool* pool, std::size_t count,
               const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  } else {
    pool->parallel_for(count, fn);
  }
}

// GEMM scheduler metrics for the measured Table I / Fig. 3 sections:
// "blas.gemm.seconds" is (calls, accumulated wall time), flops is the
// nominal 2mnk count. Accumulated through the per-thread global registries
// because GEMM has no per-rank stats owner.
obs::HistogramId gemm_seconds_metric() {
  static const obs::HistogramId id =
      obs::Schema::global().histogram("blas.gemm.seconds");
  return id;
}
obs::CounterId gemm_flops_metric() {
  static const obs::CounterId id =
      obs::Schema::global().counter("blas.gemm.flops");
  return id;
}

struct GemmMetricsScope {
  explicit GemmMetricsScope(std::uint64_t f) : flops(f) {}
  ~GemmMetricsScope() {
    obs::global_add(gemm_flops_metric(), flops);
    obs::global_observe(gemm_seconds_metric(), timer.seconds());
  }
  std::uint64_t flops;
  util::Timer timer;
};

/// Micro-kernel selection: float goes through the runtime-dispatched
/// function-pointer table, double through the scalar reference.
template <typename T>
struct KernelChoice {
  static auto pick() {
    if constexpr (std::is_same_v<T, float>) {
      return active_kernels().sgemm_microkernel;
    } else {
      return &microkernel<T>;
    }
  }
};

/// Fused-epilogue GEMM engine; gemm() calls it with an empty epilogue.
template <typename T>
void gemm_engine(Trans ta, Trans tb, T alpha, ConstMatrixView<T> a,
                 ConstMatrixView<T> b, T beta, MatrixView<T> c,
                 const GemmEpilogue<T>& ep, util::ThreadPool* pool,
                 const GemmBlocking& blocking) {
  const std::size_t m = op_rows(a, ta);
  const std::size_t k = op_cols(a, ta);
  const std::size_t n = op_cols(b, tb);
  assert(op_rows(b, tb) == k);
  assert(c.rows == m && c.cols == n);

  if (m == 0 || n == 0) return;

  BGQHF_SPAN("gemm", "gemm_engine");
  GemmMetricsScope metrics(2ull * m * n * k);

  if (k == 0 || alpha == T{}) {
    // Degenerate: no k-loop to fold beta into; fall back to a C sweep, then
    // apply the epilogue over the whole matrix.
    scale_c(beta, c);
    if (!ep.empty()) {
      for (std::size_t i = 0; i < m; i += kMR) {
        const std::size_t mr = std::min(kMR, m - i);
        for (std::size_t j = 0; j < n; j += kNR) {
          const std::size_t nr = std::min(kNR, n - j);
          apply_epilogue_tile(ep, c.data + i * c.ld + j, c.ld, mr, nr, i, j,
                              ep.col_sums);
        }
      }
    }
    return;
  }

  const bool trans_a = (ta == Trans::kYes);
  const bool trans_b = (tb == Trans::kYes);
  const auto kernel = KernelChoice<T>::pick();
  auto& mempool = util::MemoryPool::global();

  const std::size_t row_blocks = (m + blocking.mc - 1) / blocking.mc;
  const std::size_t group_blocks = std::min(row_blocks, kMaxGroupBlocks);

  // All transient buffers are leased once per call, outside every parallel
  // region, so the MemoryPool mutex never appears in the inner loops.
  util::PoolBuffer<T> bbuf(mempool, packed_b_elems(std::min(blocking.kc, k),
                                                   std::min(blocking.nc, n)));
  util::PoolBuffer<T> abuf(
      mempool, group_blocks * packed_a_elems(blocking.mc, blocking.kc));

  // Per-row-block bias-gradient accumulator rows: tasks in the same jr
  // column range but different ic blocks would otherwise race on
  // ep.col_sums. Reduced (in fixed ascending block order, so results do not
  // depend on threading) at the end of the call.
  util::PoolBuffer<T> colsums(mempool,
                              ep.col_sums != nullptr ? row_blocks * n : 1);
  if (ep.col_sums != nullptr) {
    std::fill(colsums.data(), colsums.data() + row_blocks * n, T{});
  }

  for (std::size_t jc = 0; jc < n; jc += blocking.nc) {
    const std::size_t nc = std::min(blocking.nc, n - jc);
    const std::size_t pack_slices = (nc + kPackSliceCols - 1) / kPackSliceCols;
    const std::size_t jr_slices = (nc + kJrSliceCols - 1) / kJrSliceCols;

    for (std::size_t pc = 0; pc < k; pc += blocking.kc) {
      const std::size_t kc = std::min(blocking.kc, k - pc);
      // First k-block writes C with the caller's beta (beta == 0 never
      // reads C); later blocks accumulate. No serial scale_c pre-pass.
      const T beta_eff = (pc == 0) ? beta : T{1};
      const bool last_k = (pc + kc == k);
      const std::size_t a_stride = packed_a_elems(blocking.mc, kc);

      for (std::size_t g0 = 0; g0 < row_blocks; g0 += group_blocks) {
        const std::size_t gblocks = std::min(group_blocks, row_blocks - g0);

        // Cooperative packing (the analogue of the paper's implicitly
        // synchronized packing threads, Sec. V-A3): B slices and the
        // group's A row blocks are one task list drained by the whole
        // pool; parallel_for's completion is the implicit barrier. B is
        // packed only alongside the first group.
        const std::size_t b_tasks = (g0 == 0) ? pack_slices : 0;
        run_tasks(pool, b_tasks + gblocks, [&](std::size_t t) {
          if (t < b_tasks) {
            const std::size_t jr0 = t * kPackSliceCols;
            const std::size_t cols = std::min(kPackSliceCols, nc - jr0);
            pack_b(b, trans_b, pc, jc + jr0, kc, cols,
                   bbuf.data() + (jr0 / kNR) * kc * kNR);
          } else {
            const std::size_t blk = g0 + (t - b_tasks);
            const std::size_t ic = blk * blocking.mc;
            const std::size_t mc = std::min(blocking.mc, m - ic);
            pack_a(a, trans_a, ic, pc, mc, kc,
                   abuf.data() + (blk - g0) * a_stride);
          }
        });

        // 2-D (ic, jr) task grid over the shared packed panels. Tasks for
        // one row block are contiguous so a thread tends to reuse the same
        // packed-A panel out of cache across consecutive jr slices.
        run_tasks(pool, gblocks * jr_slices, [&](std::size_t t) {
          const std::size_t blk = g0 + t / jr_slices;
          const std::size_t slice = t % jr_slices;
          const std::size_t ic = blk * blocking.mc;
          const std::size_t mc = std::min(blocking.mc, m - ic);
          const T* ablk = abuf.data() + (blk - g0) * a_stride;
          const std::size_t jr_end =
              std::min(nc, (slice + 1) * kJrSliceCols);
          T* colsum_row = (last_k && ep.col_sums != nullptr)
                              ? colsums.data() + blk * n
                              : nullptr;
          for (std::size_t jr = slice * kJrSliceCols; jr < jr_end;
               jr += kNR) {
            const std::size_t nr = std::min(kNR, nc - jr);
            const T* bpanel = bbuf.data() + (jr / kNR) * kc * kNR;
            for (std::size_t ir = 0; ir < mc; ir += kMR) {
              const std::size_t mr = std::min(kMR, mc - ir);
              const T* apanel = ablk + (ir / kMR) * kc * kMR;
              T* ctile = c.data + (ic + ir) * c.ld + (jc + jr);
              kernel(kc, apanel, bpanel, alpha, beta_eff, ctile, c.ld, mr,
                     nr);
              if (last_k && !ep.empty()) {
                apply_epilogue_tile(ep, ctile, c.ld, mr, nr, ic + ir,
                                    jc + jr, colsum_row);
              }
            }
          }
        });
      }
    }
  }

  if (ep.col_sums != nullptr) {
    for (std::size_t blk = 0; blk < row_blocks; ++blk) {
      const T* row = colsums.data() + blk * n;
      for (std::size_t j = 0; j < n; ++j) ep.col_sums[j] += row[j];
    }
  }
}

}  // namespace

template <typename T>
void gemm(Trans ta, Trans tb, T alpha, ConstMatrixView<T> a,
          ConstMatrixView<T> b, T beta, MatrixView<T> c,
          util::ThreadPool* pool, const GemmBlocking& blocking) {
  // The precision tier routes float GEMM only: double stays fp64 (it is
  // the reference/tests configuration) and gemv/level-1 stay fp32 in every
  // mode (the CG double-accumulation contract). Only int8 has its own
  // engine; bf16 narrows the collectives' wire, not the GEMM (precision.h).
  if constexpr (std::is_same_v<T, float>) {
    if (active_precision() == Precision::kInt8) {
      gemm_int8(ta, tb, alpha, a, b, beta, c, GemmEpilogue<float>{}, pool);
      return;
    }
  }
  gemm_engine(ta, tb, alpha, a, b, beta, c, GemmEpilogue<T>{}, pool,
              blocking);
}

template <typename T>
void gemm_fused(Trans ta, Trans tb, T alpha, ConstMatrixView<T> a,
                ConstMatrixView<T> b, T beta, MatrixView<T> c,
                const GemmEpilogue<T>& epilogue, util::ThreadPool* pool,
                const GemmBlocking& blocking) {
  if constexpr (std::is_same_v<T, float>) {
    if (active_precision() == Precision::kInt8) {
      gemm_int8(ta, tb, alpha, a, b, beta, c, epilogue, pool);
      return;
    }
  }
  gemm_engine(ta, tb, alpha, a, b, beta, c, epilogue, pool, blocking);
}

template <typename T>
void gemm_naive(Trans ta, Trans tb, T alpha, ConstMatrixView<T> a,
                ConstMatrixView<T> b, T beta, MatrixView<T> c) {
  const std::size_t m = op_rows(a, ta);
  const std::size_t k = op_cols(a, ta);
  const std::size_t n = op_cols(b, tb);
  assert(op_rows(b, tb) == k);
  assert(c.rows == m && c.cols == n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const T av = ta == Trans::kNo ? a(i, p) : a(p, i);
        const T bv = tb == Trans::kNo ? b(p, j) : b(j, p);
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c(i, j) = static_cast<T>(alpha * acc + beta * c(i, j));
    }
  }
}

template <typename T>
void gemv(Trans ta, T alpha, ConstMatrixView<T> a, const T* x, T beta, T* y) {
  const std::size_t m = op_rows(a, ta);
  const std::size_t k = op_cols(a, ta);
  if (ta == Trans::kNo) {
    if constexpr (std::is_same_v<T, float>) {
      // Row-major rows are stride-one: one dispatched SIMD dot per output.
      const auto& kt = active_kernels();
      for (std::size_t i = 0; i < m; ++i) {
        const double acc = kt.sdot(a.data + i * a.ld, x, k);
        y[i] = static_cast<T>(alpha * acc + beta * y[i]);
      }
    } else {
      for (std::size_t i = 0; i < m; ++i) {
        const T* row = a.data + i * a.ld;
        double acc = 0.0;
        for (std::size_t p = 0; p < k; ++p) {
          acc += static_cast<double>(row[p]) * static_cast<double>(x[p]);
        }
        y[i] = static_cast<T>(alpha * acc + beta * y[i]);
      }
    }
    return;
  }
  // Transposed: accumulate whole output rows-at-a-time so the inner loop is
  // stride-one (vectorizable) while keeping the double accumulation the CG
  // code relies on.
  auto& mempool = util::MemoryPool::global();
  util::PoolBuffer<double> acc(mempool, m);
  std::fill(acc.data(), acc.data() + m, 0.0);
  for (std::size_t p = 0; p < k; ++p) {
    const T* row = a.data + p * a.ld;
    const double xp = static_cast<double>(x[p]);
    double* __restrict out = acc.data();
    for (std::size_t i = 0; i < m; ++i) {
      out[i] += static_cast<double>(row[i]) * xp;
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    y[i] = static_cast<T>(alpha * acc[i] + beta * y[i]);
  }
}

// Explicit instantiations: the library ships float (training) and double
// (reference/tests) kernels.
template void gemm<float>(Trans, Trans, float, ConstMatrixView<float>,
                          ConstMatrixView<float>, float, MatrixView<float>,
                          util::ThreadPool*, const GemmBlocking&);
template void gemm<double>(Trans, Trans, double, ConstMatrixView<double>,
                           ConstMatrixView<double>, double,
                           MatrixView<double>, util::ThreadPool*,
                           const GemmBlocking&);
template void gemm_fused<float>(Trans, Trans, float, ConstMatrixView<float>,
                                ConstMatrixView<float>, float,
                                MatrixView<float>, const GemmEpilogue<float>&,
                                util::ThreadPool*, const GemmBlocking&);
template void gemm_fused<double>(Trans, Trans, double,
                                 ConstMatrixView<double>,
                                 ConstMatrixView<double>, double,
                                 MatrixView<double>,
                                 const GemmEpilogue<double>&,
                                 util::ThreadPool*, const GemmBlocking&);
template void gemm_naive<float>(Trans, Trans, float, ConstMatrixView<float>,
                                ConstMatrixView<float>, float,
                                MatrixView<float>);
template void gemm_naive<double>(Trans, Trans, double,
                                 ConstMatrixView<double>,
                                 ConstMatrixView<double>, double,
                                 MatrixView<double>);
template void gemv<float>(Trans, float, ConstMatrixView<float>, const float*,
                          float, float*);
template void gemv<double>(Trans, double, ConstMatrixView<double>,
                           const double*, double, double*);

}  // namespace bgqhf::blas
