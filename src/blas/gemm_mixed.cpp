#include "blas/gemm_mixed.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "blas/dispatch.h"
#include "blas/pack.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "util/memory_pool.h"
#include "util/timer.h"

namespace bgqhf::blas {

namespace {

template <typename T>
std::size_t op_rows(ConstMatrixView<T> v, Trans t) {
  return t == Trans::kNo ? v.rows : v.cols;
}
template <typename T>
std::size_t op_cols(ConstMatrixView<T> v, Trans t) {
  return t == Trans::kNo ? v.cols : v.rows;
}

void run_tasks(util::ThreadPool* pool, std::size_t count,
               const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  } else {
    pool->parallel_for(count, fn);
  }
}

// Same metric names as the fp32 engine (Schema interning dedups), so the
// figure benches see GEMM time regardless of the precision tier.
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

// Degenerate shapes (k == 0 or alpha == 0): no packed panels to fold beta
// into; sweep C directly, then apply the epilogue.
void degenerate_sweep(float beta, MatrixView<float> c,
                      const GemmEpilogue& ep) {
  if (beta != 1.0f) {
    for (std::size_t i = 0; i < c.rows; ++i) {
      float* row = c.data + i * c.ld;
      if (beta == 0.0f) {
        std::fill(row, row + c.cols, 0.0f);
      } else {
        for (std::size_t j = 0; j < c.cols; ++j) row[j] *= beta;
      }
    }
  }
  if (ep.empty()) return;
  const EpilogueTileFn epilogue = active_kernels().epilogue_tile;
  for (std::size_t i = 0; i < c.rows; i += kMRmx) {
    const std::size_t mr = std::min(kMRmx, c.rows - i);
    for (std::size_t j = 0; j < c.cols; j += kNRmx) {
      const std::size_t nr = std::min(kNRmx, c.cols - j);
      epilogue(ep, c.data + i * c.ld + j, c.ld, mr, nr, i, j, ep.col_sums);
    }
  }
}

// ---- int8 quantization + packing ----

constexpr std::uint8_t kAZero = 128;  // A-side zero point

/// Round to nearest-even without a libm call: adding 1.5*2^23 pushes the
/// fractional bits out of the fp32 significand under the default rounding
/// mode, so the subtraction leaves an exactly-integral float. The pre-clamp
/// keeps the trick exact (it needs |x| < 2^22) and makes static-scale
/// outliers saturate with the right sign, which lrintf's unspecified
/// out-of-range result did not guarantee. Single definition in this TU ->
/// every kernel tier quantizes identically, so cross-ISA parity is trivial.
inline std::int32_t round_ne(float x) {
  x = std::min(std::max(x, -130.0f), 130.0f);
  constexpr float kMagic = 12582912.0f;  // 1.5 * 2^23
  float r = x + kMagic;
  r -= kMagic;
  return static_cast<std::int32_t>(r);
}

inline std::uint8_t quantize_u8(float v, float inv_scale) {
  const std::int32_t q = round_ne(v * inv_scale) + kAZero;
  return static_cast<std::uint8_t>(std::clamp<std::int32_t>(q, 0, 255));
}

inline std::int8_t quantize_s8(float v, float inv_scale) {
  const std::int32_t q = round_ne(v * inv_scale);
  return static_cast<std::int8_t>(std::clamp<std::int32_t>(q, -127, 127));
}

std::size_t groups_of(std::size_t k) { return (k + kKGroup - 1) / kKGroup; }

/// Quantize + pack one kMRmx-row block of op(A). row_scale[] gets the
/// per-row scales; rows use static_scale when > 0, else max-abs/127.
/// Padding (k beyond the end, rows beyond mr) packs the zero point, which
/// the column-sum compensation cancels exactly.
void pack_a_u8_block(ConstMatrixView<float> a, bool trans, std::size_t row0,
                     std::size_t m_rows, std::size_t k, float static_scale,
                     std::uint8_t* buf, float* row_scale) {
  const std::size_t mr = std::min(kMRmx, m_rows - row0);
  float inv[kMRmx] = {0};
  for (std::size_t i = 0; i < mr; ++i) {
    const std::size_t r = row0 + i;
    float scale = static_scale;
    if (scale <= 0.0f) {
      float amax = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        amax = std::max(amax, std::fabs(trans ? a(kk, r) : a(r, kk)));
      }
      scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    }
    row_scale[i] = scale;
    inv[i] = 1.0f / scale;
  }
  const std::size_t kg = groups_of(k);
#if defined(__SSE2__)
  if (!trans) {
    // Row-major A: each (row, k-group) is 4 contiguous floats -> 4 bytes at
    // buf[g*32 + i*4]. Same scalar-equivalence argument as the B panel
    // (integer clamp bounds, nearest-even cvtps2dq); +128 zero-point shift
    // lands in [0,255] so the unsigned pack is exact.
    const std::size_t full_groups = k / kKGroup;
    const __m128 vlo = _mm_set1_ps(-128.0f);
    const __m128 vhi = _mm_set1_ps(127.0f);
    const __m128i vzp = _mm_set1_epi32(kAZero);
    for (std::size_t i = 0; i < kMRmx; ++i) {
      std::uint8_t* rbuf = buf + i * kKGroup;
      if (i >= mr) {
        for (std::size_t g = 0; g < kg; ++g) {
          std::memset(rbuf + g * kMRmx * kKGroup, kAZero, kKGroup);
        }
        continue;
      }
      const float* row = &a(row0 + i, 0);
      const __m128 vinv = _mm_set1_ps(inv[i]);
      for (std::size_t g = 0; g < full_groups; ++g) {
        __m128 x = _mm_mul_ps(_mm_loadu_ps(row + g * kKGroup), vinv);
        x = _mm_min_ps(_mm_max_ps(x, vlo), vhi);
        const __m128i q = _mm_add_epi32(_mm_cvtps_epi32(x), vzp);
        const __m128i w = _mm_packs_epi32(q, q);
        const int b4 = _mm_cvtsi128_si32(_mm_packus_epi16(w, w));
        std::memcpy(rbuf + g * kMRmx * kKGroup, &b4, kKGroup);
      }
      for (std::size_t g = full_groups; g < kg; ++g) {
        for (std::size_t t = 0; t < kKGroup; ++t) {
          const std::size_t kk = g * kKGroup + t;
          rbuf[g * kMRmx * kKGroup + t] =
              kk < k ? quantize_u8(row[kk], inv[i]) : kAZero;
        }
      }
    }
    return;
  }
#endif
  for (std::size_t g = 0; g < kg; ++g) {
    for (std::size_t i = 0; i < kMRmx; ++i) {
      for (std::size_t t = 0; t < kKGroup; ++t) {
        const std::size_t kk = g * kKGroup + t;
        if (i >= mr || kk >= k) {
          *buf++ = kAZero;
          continue;
        }
        const std::size_t r = row0 + i;
        *buf++ = quantize_u8(trans ? a(kk, r) : a(r, kk), inv[i]);
      }
    }
  }
}

/// Quantize + pack one kNRmx-column panel of op(B): symmetric signed with
/// per-column max-abs scales; col_sums[] collects sum_k q for the zero-
/// point compensation. Padding packs 0 (sum-neutral).
void pack_b_s8_panel(ConstMatrixView<float> b, bool trans, std::size_t col0,
                     std::size_t n_cols, std::size_t k, std::int8_t* buf,
                     float* col_scale, std::int32_t* col_sums) {
  const std::size_t nr = std::min(kNRmx, n_cols - col0);
  float inv[kNRmx] = {0};
  if (!trans && nr == kNRmx) {
    // Full-width panel of row-major B. A per-column k scan strides by the
    // row pitch (a cache line per element), so both passes walk k outermost
    // and the 16 contiguous columns innermost; the amax pass vectorizes.
    float amax[kNRmx] = {0};
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* row = &b(kk, col0);
      for (std::size_t j = 0; j < kNRmx; ++j) {
        amax[j] = std::max(amax[j], std::fabs(row[j]));
      }
    }
    for (std::size_t j = 0; j < kNRmx; ++j) {
      col_scale[j] = amax[j] > 0.0f ? amax[j] / 127.0f : 1.0f;
      inv[j] = 1.0f / col_scale[j];
      col_sums[j] = 0;
    }
    const std::size_t kg = groups_of(k);
    std::size_t g0 = 0;
#if defined(__SSE2__)
    // Whole k-groups: quantize 4 rows x 16 columns at a time. cvtps2dq is
    // the same nearest-even rounding as round_ne, and clamping to +-127 in
    // the float domain before conversion equals the scalar integer clamp
    // (the bounds are integers and rounding is monotone), so this produces
    // the exact bytes quantize_s8 would. The 4x4 dword transpose puts each
    // column's 4 k-values in a lane; two saturating packs then emit the
    // 16-byte column-major group in one store.
    const std::size_t full_groups = k / kKGroup;
    const __m128 vlo = _mm_set1_ps(-127.0f);
    const __m128 vhi = _mm_set1_ps(127.0f);
    __m128 vinv[4];
    __m128i vsum[4];
    for (int cc = 0; cc < 4; ++cc) {
      vinv[cc] = _mm_loadu_ps(inv + 4 * cc);
      vsum[cc] = _mm_setzero_si128();
    }
    for (std::size_t g = 0; g < full_groups; ++g) {
      std::int8_t* gbuf = buf + g * kNRmx * kKGroup;
      const float* rows[kKGroup];
      for (std::size_t t = 0; t < kKGroup; ++t) {
        rows[t] = &b(g * kKGroup + t, col0);
      }
      for (int cc = 0; cc < 4; ++cc) {
        __m128i q[kKGroup];
        for (std::size_t t = 0; t < kKGroup; ++t) {
          __m128 x = _mm_mul_ps(_mm_loadu_ps(rows[t] + 4 * cc), vinv[cc]);
          x = _mm_min_ps(_mm_max_ps(x, vlo), vhi);
          q[t] = _mm_cvtps_epi32(x);
          vsum[cc] = _mm_add_epi32(vsum[cc], q[t]);
        }
        const __m128i t0 = _mm_unpacklo_epi32(q[0], q[1]);
        const __m128i t1 = _mm_unpackhi_epi32(q[0], q[1]);
        const __m128i t2 = _mm_unpacklo_epi32(q[2], q[3]);
        const __m128i t3 = _mm_unpackhi_epi32(q[2], q[3]);
        const __m128i c0 = _mm_unpacklo_epi64(t0, t2);
        const __m128i c1 = _mm_unpackhi_epi64(t0, t2);
        const __m128i c2 = _mm_unpacklo_epi64(t1, t3);
        const __m128i c3 = _mm_unpackhi_epi64(t1, t3);
        const __m128i bytes = _mm_packs_epi16(_mm_packs_epi32(c0, c1),
                                              _mm_packs_epi32(c2, c3));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(gbuf + cc * 16), bytes);
      }
    }
    for (int cc = 0; cc < 4; ++cc) {
      alignas(16) std::int32_t lane[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(lane), vsum[cc]);
      for (int j = 0; j < 4; ++j) col_sums[4 * cc + j] += lane[j];
    }
    g0 = full_groups;
#endif
    for (std::size_t g = g0; g < kg; ++g) {
      std::int8_t* gbuf = buf + g * kNRmx * kKGroup;
      for (std::size_t t = 0; t < kKGroup; ++t) {
        const std::size_t kk = g * kKGroup + t;
        if (kk >= k) {
          for (std::size_t j = 0; j < kNRmx; ++j) gbuf[j * kKGroup + t] = 0;
          continue;
        }
        const float* row = &b(kk, col0);
        for (std::size_t j = 0; j < kNRmx; ++j) {
          const std::int8_t q = quantize_s8(row[j], inv[j]);
          col_sums[j] += q;
          gbuf[j * kKGroup + t] = q;
        }
      }
    }
    return;
  }
  for (std::size_t j = 0; j < kNRmx; ++j) {
    if (j >= nr) {
      col_scale[j] = 1.0f;
      col_sums[j] = 0;
      continue;
    }
    const std::size_t col = col0 + j;
    float amax = 0.0f;
    for (std::size_t kk = 0; kk < k; ++kk) {
      amax = std::max(amax, std::fabs(trans ? b(col, kk) : b(kk, col)));
    }
    col_scale[j] = amax > 0.0f ? amax / 127.0f : 1.0f;
    inv[j] = 1.0f / col_scale[j];
    col_sums[j] = 0;
  }
  const std::size_t kg = groups_of(k);
  for (std::size_t g = 0; g < kg; ++g) {
    for (std::size_t j = 0; j < kNRmx; ++j) {
      for (std::size_t t = 0; t < kKGroup; ++t) {
        const std::size_t kk = g * kKGroup + t;
        if (j >= nr || kk >= k) {
          *buf++ = 0;
          continue;
        }
        const std::size_t col = col0 + j;
        const std::int8_t q =
            quantize_s8(trans ? b(col, kk) : b(kk, col), inv[j]);
        col_sums[j] += q;
        *buf++ = q;
      }
    }
  }
}

/// Dequantize + write one int32 tile: the exact integer accumulator minus
/// the A-side zero-point term, scaled per (row, column).
void store_tile_int8(const std::int32_t* acc, const float* row_scale,
                     const float* col_scale, const std::int32_t* col_sums,
                     float alpha, float beta, float* __restrict c,
                     std::size_t ldc, std::size_t mr, std::size_t nr) {
  for (std::size_t i = 0; i < mr; ++i) {
    const std::int32_t* arow = acc + i * kNRmx;
    const float sa = row_scale[i];
    float* crow = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      const std::int32_t raw = arow[j] - kAZero * col_sums[j];
      const float v = sa * col_scale[j] * static_cast<float>(raw);
      crow[j] = beta == 0.0f ? alpha * v : alpha * v + beta * crow[j];
    }
  }
}

/// Tile-grid traversal in 8x8 super-blocks. A tile reads its whole packed
/// A block and B panel (full k), so flat row-major order re-streams the
/// entire packed B once per row block — O(row_blocks * n * k) bytes of
/// L3/DRAM traffic on big shapes, which is what bounds the int8 engine,
/// not the microkernel. Super-blocking keeps ~8 A blocks + 8 B panels
/// resident and cuts panel traffic ~8x each way.
/// Tiles are independent, so this is a pure reordering: results stay
/// bitwise identical, serial or threaded. The grid is padded up to
/// super-block multiples; out-of-range slots are skipped.
struct TileOrder {
  static constexpr std::size_t kSuper = 8;
  std::size_t row_blocks, col_panels, super_cols;

  TileOrder(std::size_t rb, std::size_t cp)
      : row_blocks(rb), col_panels(cp),
        super_cols((cp + kSuper - 1) / kSuper) {}

  std::size_t task_count() const {
    const std::size_t super_rows = (row_blocks + kSuper - 1) / kSuper;
    return super_rows * super_cols * kSuper * kSuper;
  }

  /// Linear task index -> (row_block, col_panel); false for padding slots.
  bool map(std::size_t t, std::size_t* rb, std::size_t* cp) const {
    const std::size_t super = t / (kSuper * kSuper);
    const std::size_t within = t % (kSuper * kSuper);
    *rb = (super / super_cols) * kSuper + within / kSuper;
    *cp = (super % super_cols) * kSuper + within % kSuper;
    return *rb < row_blocks && *cp < col_panels;
  }
};

}  // namespace

void gemm_int8(Trans ta, Trans tb, float alpha, ConstMatrixView<float> a,
               ConstMatrixView<float> b, float beta, MatrixView<float> c,
               const GemmEpilogue& ep, util::ThreadPool* pool) {
  const std::size_t m = op_rows(a, ta);
  const std::size_t k = op_cols(a, ta);
  const std::size_t n = op_cols(b, tb);
  assert(op_rows(b, tb) == k);
  assert(c.rows == m && c.cols == n);
  if (m == 0 || n == 0) return;

  BGQHF_SPAN("gemm", "gemm_int8");
  GemmMetricsScope metrics(2ull * m * n * k);

  if (k == 0 || alpha == 0.0f) {
    degenerate_sweep(beta, c, ep);
    return;
  }

  const bool trans_a = (ta == Trans::kYes);
  const bool trans_b = (tb == Trans::kYes);
  const auto kernel = active_kernels().int8_microkernel;
  const EpilogueTileFn epilogue = active_kernels().epilogue_tile;
  auto& mempool = util::MemoryPool::global();

  const std::size_t row_blocks = (m + kMRmx - 1) / kMRmx;
  const std::size_t col_panels = (n + kNRmx - 1) / kNRmx;
  const std::size_t kg = groups_of(k);
  const std::size_t a_stride = kMRmx * kKGroup * kg;
  const std::size_t b_stride = kNRmx * kKGroup * kg;

  util::PoolBuffer<std::uint8_t> abuf(mempool, row_blocks * a_stride);
  util::PoolBuffer<std::int8_t> bbuf(mempool, col_panels * b_stride);
  util::PoolBuffer<float> ascale(mempool, row_blocks * kMRmx);
  util::PoolBuffer<float> bscale(mempool, col_panels * kNRmx);
  util::PoolBuffer<std::int32_t> bsums(mempool, col_panels * kNRmx);
  util::PoolBuffer<float> colsums(
      mempool, ep.col_sums != nullptr ? row_blocks * n : 1);
  if (ep.col_sums != nullptr) {
    std::fill(colsums.data(), colsums.data() + row_blocks * n, 0.0f);
  }

  run_tasks(pool, row_blocks + col_panels, [&](std::size_t t) {
    if (t < row_blocks) {
      pack_a_u8_block(a, trans_a, t * kMRmx, m, k, /*static_scale=*/0.0f,
                      abuf.data() + t * a_stride,
                      ascale.data() + t * kMRmx);
    } else {
      const std::size_t p = t - row_blocks;
      pack_b_s8_panel(b, trans_b, p * kNRmx, n, k, bbuf.data() + p * b_stride,
                      bscale.data() + p * kNRmx, bsums.data() + p * kNRmx);
    }
  });

  const TileOrder order(row_blocks, col_panels);
  run_tasks(pool, order.task_count(), [&](std::size_t t) {
    std::size_t blk, p;
    if (!order.map(t, &blk, &p)) return;
    const std::size_t i0 = blk * kMRmx;
    const std::size_t j0 = p * kNRmx;
    const std::size_t mr = std::min(kMRmx, m - i0);
    const std::size_t nr = std::min(kNRmx, n - j0);
    alignas(64) std::int32_t acc[kMRmx * kNRmx] = {0};
    kernel(kg, abuf.data() + blk * a_stride, bbuf.data() + p * b_stride,
           acc);
    float* ctile = c.data + i0 * c.ld + j0;
    store_tile_int8(acc, ascale.data() + blk * kMRmx,
                    bscale.data() + p * kNRmx, bsums.data() + p * kNRmx,
                    alpha, beta, ctile, c.ld, mr, nr);
    if (!ep.empty()) {
      float* colsum_row =
          ep.col_sums != nullptr ? colsums.data() + blk * n : nullptr;
      epilogue(ep, ctile, c.ld, mr, nr, i0, j0, colsum_row);
    }
  });

  if (ep.col_sums != nullptr) {
    for (std::size_t blk = 0; blk < row_blocks; ++blk) {
      const float* row = colsums.data() + blk * n;
      for (std::size_t j = 0; j < n; ++j) ep.col_sums[j] += row[j];
    }
  }
}

// ---- pre-packed int8 weights (serving) ----

Int8PackedMatrix pack_b_int8(ConstMatrixView<float> b, bool trans) {
  Int8PackedMatrix out;
  out.k = trans ? b.cols : b.rows;
  out.n = trans ? b.rows : b.cols;
  out.kgroups = groups_of(out.k);
  const std::size_t col_panels = (out.n + kNRmx - 1) / kNRmx;
  const std::size_t b_stride = kNRmx * kKGroup * out.kgroups;
  out.panels.resize(col_panels * b_stride);
  out.col_scale.resize(col_panels * kNRmx);
  out.col_sums.resize(col_panels * kNRmx);
  for (std::size_t p = 0; p < col_panels; ++p) {
    pack_b_s8_panel(b, trans, p * kNRmx, out.n, out.k,
                    out.panels.data() + p * b_stride,
                    out.col_scale.data() + p * kNRmx,
                    out.col_sums.data() + p * kNRmx);
  }
  return out;
}

Int8PackedMatrix pack_int8_weights(const std::int8_t* w, std::size_t n,
                                   std::size_t k, const float* row_scale) {
  // w is n x k row-major, logically op(B) = W^T: column j of op(B) is row
  // j of w, with its caller-provided (checkpointed) scale.
  Int8PackedMatrix out;
  out.k = k;
  out.n = n;
  out.kgroups = groups_of(k);
  const std::size_t col_panels = (n + kNRmx - 1) / kNRmx;
  const std::size_t b_stride = kNRmx * kKGroup * out.kgroups;
  out.panels.resize(col_panels * b_stride);
  out.col_scale.resize(col_panels * kNRmx, 1.0f);
  out.col_sums.resize(col_panels * kNRmx, 0);
  for (std::size_t p = 0; p < col_panels; ++p) {
    std::int8_t* buf = out.panels.data() + p * b_stride;
    const std::size_t nr = std::min(kNRmx, n - p * kNRmx);
    for (std::size_t j = 0; j < nr; ++j) {
      out.col_scale[p * kNRmx + j] = row_scale[p * kNRmx + j];
    }
    for (std::size_t g = 0; g < out.kgroups; ++g) {
      for (std::size_t j = 0; j < kNRmx; ++j) {
        for (std::size_t t = 0; t < kKGroup; ++t) {
          const std::size_t kk = g * kKGroup + t;
          if (j >= nr || kk >= k) {
            *buf++ = 0;
            continue;
          }
          const std::int8_t q = w[(p * kNRmx + j) * k + kk];
          out.col_sums[p * kNRmx + j] += q;
          *buf++ = q;
        }
      }
    }
  }
  return out;
}

void gemm_int8_packed(ConstMatrixView<float> a, const Int8PackedMatrix& bq,
                      MatrixView<float> c, const GemmEpilogue& ep,
                      Int8Scratch& scratch, float static_scale) {
  const std::size_t m = a.rows;
  const std::size_t k = a.cols;
  const std::size_t n = bq.n;
  assert(k == bq.k);
  assert(c.rows == m && c.cols == n);
  if (m == 0 || n == 0) return;

  BGQHF_SPAN("gemm", "gemm_int8_packed");
  GemmMetricsScope metrics(2ull * m * n * k);

  const auto kernel = active_kernels().int8_microkernel;
  const EpilogueTileFn epilogue = active_kernels().epilogue_tile;
  const std::size_t row_blocks = (m + kMRmx - 1) / kMRmx;
  const std::size_t col_panels = (n + kNRmx - 1) / kNRmx;
  const std::size_t kg = bq.kgroups;
  const std::size_t a_stride = kMRmx * kKGroup * kg;
  const std::size_t b_stride = kNRmx * kKGroup * kg;

  scratch.a_panels.resize(row_blocks * a_stride);
  scratch.row_scale.resize(row_blocks * kMRmx);

  for (std::size_t blk = 0; blk < row_blocks; ++blk) {
    pack_a_u8_block(a, /*trans=*/false, blk * kMRmx, m, k, static_scale,
                    scratch.a_panels.data() + blk * a_stride,
                    scratch.row_scale.data() + blk * kMRmx);
  }

  for (std::size_t blk = 0; blk < row_blocks; ++blk) {
    const std::size_t i0 = blk * kMRmx;
    const std::size_t mr = std::min(kMRmx, m - i0);
    for (std::size_t p = 0; p < col_panels; ++p) {
      const std::size_t j0 = p * kNRmx;
      const std::size_t nr = std::min(kNRmx, n - j0);
      alignas(64) std::int32_t acc[kMRmx * kNRmx] = {0};
      kernel(kg, scratch.a_panels.data() + blk * a_stride,
             bq.panels.data() + p * b_stride, acc);
      float* ctile = c.data + i0 * c.ld + j0;
      store_tile_int8(acc, scratch.row_scale.data() + blk * kMRmx,
                      bq.col_scale.data() + p * kNRmx,
                      bq.col_sums.data() + p * kNRmx, 1.0f, 0.0f, ctile,
                      c.ld, mr, nr);
      if (!ep.empty()) {
        epilogue(ep, ctile, c.ld, mr, nr, i0, j0, ep.col_sums);
      }
    }
  }
}

}  // namespace bgqhf::blas
