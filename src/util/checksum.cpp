#include "util/checksum.h"

#include "util/checksum_clmul.h"

namespace bgqhf::util {

bool crc32_folded() {
#if defined(BGQHF_HAVE_CRC32_CLMUL_TU)
  static const bool supported = __builtin_cpu_supports("pclmul") &&
                                __builtin_cpu_supports("sse4.2");
  return supported;
#else
  return false;
#endif
}

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t reg = ~crc;
#if defined(BGQHF_HAVE_CRC32_CLMUL_TU)
  // The kernel takes whole 16-byte blocks, at least four; the table loop
  // finishes the sub-block tail (and handles short buffers outright).
  if (len >= 64 && crc32_folded()) {
    const std::size_t body = len & ~std::size_t{15};
    reg = detail::crc32_clmul_update(reg, p, body);
    p += body;
    len -= body;
  }
#endif
  return ~detail::crc32_table_update(reg, p, len);
}

}  // namespace bgqhf::util
