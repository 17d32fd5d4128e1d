// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Used two ways: (i) the fault-tolerant master/worker protocol frames
// every payload with a CRC so injected bit corruption is detected instead
// of silently trained on, and (ii) trainer checkpoints carry a CRC footer
// so a truncated or damaged file fails loudly at restart.
//
// crc32() dispatches once per process: on x86 hosts with PCLMULQDQ it
// folds 64 bytes per step with carry-less multiplies (checksum_clmul.cpp);
// everywhere else it runs the byte-at-a-time table loop, crc32_portable().
// Both return bitwise the same value for every input.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace bgqhf::util {

namespace detail {
constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}
inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

/// Table update of the raw (un-inverted) CRC register over `len` bytes.
inline std::uint32_t crc32_table_update(std::uint32_t reg,
                                        const unsigned char* p,
                                        std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    reg = kCrc32Table[(reg ^ p[i]) & 0xFFu] ^ (reg >> 8);
  }
  return reg;
}
}  // namespace detail

/// Incremental form: pass the previous return value as `crc` to continue a
/// running checksum over multiple buffers; start (and finish) with 0.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t crc = 0);

/// The byte-table reference crc32() must match; same incremental contract.
inline std::uint32_t crc32_portable(const void* data, std::size_t len,
                                    std::uint32_t crc = 0) {
  return ~detail::crc32_table_update(
      ~crc, static_cast<const unsigned char*>(data), len);
}

/// True when crc32() runs the carry-less-multiply folding kernel on this
/// host (x86 build and a CPU with PCLMULQDQ and SSE4.2).
bool crc32_folded();

}  // namespace bgqhf::util
