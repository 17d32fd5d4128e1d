#include "blas/kernels_reduced.h"

namespace bgqhf::blas {

void int8_microkernel_scalar(std::size_t kgroups, const std::uint8_t* a_panel,
                             const std::int8_t* b_panel, std::int32_t* acc) {
  for (std::size_t g = 0; g < kgroups; ++g) {
    const std::uint8_t* ag = a_panel + g * kMRmx * kKGroup;
    const std::int8_t* bg = b_panel + g * kNRmx * kKGroup;
    for (std::size_t i = 0; i < kMRmx; ++i) {
      const std::uint8_t* av = ag + i * kKGroup;
      std::int32_t* __restrict row = acc + i * kNRmx;
      for (std::size_t j = 0; j < kNRmx; ++j) {
        const std::int8_t* bv = bg + j * kKGroup;
        row[j] += static_cast<std::int32_t>(av[0]) * bv[0] +
                  static_cast<std::int32_t>(av[1]) * bv[1] +
                  static_cast<std::int32_t>(av[2]) * bv[2] +
                  static_cast<std::int32_t>(av[3]) * bv[3];
      }
    }
  }
}

}  // namespace bgqhf::blas
