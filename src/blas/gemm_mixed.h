// Reduced-precision GEMM engine: int8 x int8 -> int32 with max-abs scales.
//
// The engine uses a "flat full-k" structure instead of the fp32 engine's
// NC/KC/MC blocking: operands are quantized *inside* the pack step (no
// extra pass over A or B), panels span the full k extent, and each 8x16
// output tile is produced by a single accumulate-only micro-kernel call
// into a zeroed register tile. All float write-back — alpha/beta, the
// dequantization, the fused epilogue — happens here in the driver,
// compiled once, so scalar and AVX-512 kernel runs are bitwise identical
// (kernels_reduced.h has the exactness argument).
//
// Where rounding happens: once per operand element at pack time. A rows
// quantize unsigned (zero point 128) against per-row max-abs scales, B
// columns signed symmetric against per-column max-abs scales; integer
// accumulation is exact and the only further rounding is the one fp32
// dequant multiply at write-back.
#pragma once

#include <cstdint>
#include <vector>

#include "blas/gemm.h"

namespace bgqhf::blas {

/// Entry point used by gemm<float>/gemm_fused<float> when
/// active_precision() == kInt8. Same contract as gemm_fused.
void gemm_int8(Trans ta, Trans tb, float alpha, ConstMatrixView<float> a,
               ConstMatrixView<float> b, float beta, MatrixView<float> c,
               const GemmEpilogue<float>& ep, util::ThreadPool* pool);

// ---- pre-packed int8 weights (the serving hot path) ----

/// op(B) (k x n) quantized and packed once, reused across every score call:
/// per-column symmetric s8 with max-abs scales, VNNI panel layout
/// (kernels_reduced.h), plus the per-column sums the dequant needs to
/// remove the A-side zero point.
struct Int8PackedMatrix {
  std::size_t k = 0;        // logical op(B) rows
  std::size_t n = 0;        // logical op(B) cols
  std::size_t kgroups = 0;  // ceil(k / kKGroup)
  std::vector<std::int8_t> panels;
  std::vector<float> col_scale;      // length padded to a kNRmx multiple
  std::vector<std::int32_t> col_sums;  // same padding; sum_k q(col)
};

/// Quantize + pack a float op(B). One max-abs pass per column, then the
/// pack; scales are colmax/127 (columns of all zeros get scale 1).
Int8PackedMatrix pack_b_int8(ConstMatrixView<float> b, bool trans);

/// Pack weights that are ALREADY int8 (n x k row-major W with per-row
/// scales, logically used as op(B) = W^T) — the quantized-checkpoint load
/// path, which must not re-derive scales.
Int8PackedMatrix pack_int8_weights(const std::int8_t* w, std::size_t n,
                                   std::size_t k, const float* row_scale);

/// Reusable per-worker scratch for the activation-side quantize+pack
/// (zero-alloc after the first call at a given shape).
struct Int8Scratch {
  std::vector<std::uint8_t> a_panels;
  std::vector<float> row_scale;
};

/// C = epilogue(A x Bq): quantize+pack the fp32 activations A (m x k, no
/// transpose) and multiply against pre-packed weights. static_scale > 0
/// pins every A row to that scale (post-training calibration); otherwise
/// each row uses its own max-abs/127. beta is implicitly 0 (C is written,
/// never read), matching the forward-pass gemm_fused call shape.
void gemm_int8_packed(ConstMatrixView<float> a, const Int8PackedMatrix& bq,
                      MatrixView<float> c, const GemmEpilogue<float>& ep,
                      Int8Scratch& scratch, float static_scale = 0.0f);

}  // namespace bgqhf::blas
