// Carry-less-multiply CRC32 folding kernel (x86 PCLMULQDQ).
//
// Definitions live in checksum_clmul.cpp, which CMake compiles with
// -msse4.2 -mpclmul on x86 targets only (defining BGQHF_HAVE_CRC32_CLMUL_TU
// there); checksum.cpp calls it only after a runtime cpuid probe.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bgqhf::util::detail {

#if defined(BGQHF_HAVE_CRC32_CLMUL_TU)

/// Advance the raw (un-inverted) reflected CRC32 register over `len`
/// bytes. Requires len >= 64 and len % 16 == 0; no alignment requirement.
std::uint32_t crc32_clmul_update(std::uint32_t reg, const unsigned char* p,
                                 std::size_t len);

#endif  // BGQHF_HAVE_CRC32_CLMUL_TU

}  // namespace bgqhf::util::detail
