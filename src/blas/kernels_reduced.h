// Portable reference kernel for the int8 x int8 -> int32 GEMM tier
// (precision.h).
//
// Contract shared with the AVX-512 implementation (kernels_avx512.h), and
// deliberately narrower than the fp32 micro-kernel's: the int8 kernel only
// *accumulates* one full register tile —
//
//     acc(0:MR, 0:NR) += sum_k widen(A_panel) (x) widen(B_panel)
//
// — it never touches C, alpha, beta or fringes. All float write-back,
// dequantization and epilogue work lives in the shared driver
// (gemm_mixed.cpp), compiled once, and the accumulation is pure integer
// arithmetic, exact on any ISA: scalar and AVX-512 runs are bitwise
// identical by construction.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bgqhf::blas {

/// Register tile of the int8 kernels: 8 x 16 (one AVX-512 vector of int32
/// per row).
inline constexpr std::size_t kMRmx = 8;
inline constexpr std::size_t kNRmx = 16;
/// int8 kernels consume k in groups of 4 (the VNNI dot-product width).
inline constexpr std::size_t kKGroup = 4;

/// int8 GEMM micro-kernel: acc(8x16 int32, row-major) += A_panel x B_panel
/// over kgroups groups of 4 k-values. Per group the A panel holds kMRmx
/// rows x 4 consecutive u8 (row-major, 32 bytes), the B panel kNRmx
/// columns x 4 consecutive s8 (column-major within the group, 64 bytes) —
/// exactly the operand order of one vpdpbusd. A is unsigned (zero point
/// 128), B signed; the driver subtracts 128 * column-sums at dequant.
using Int8MicrokernelFn = void (*)(std::size_t kgroups,
                                   const std::uint8_t* a_panel,
                                   const std::int8_t* b_panel,
                                   std::int32_t* acc);

void int8_microkernel_scalar(std::size_t kgroups, const std::uint8_t* a_panel,
                             const std::int8_t* b_panel, std::int32_t* acc);

}  // namespace bgqhf::blas
