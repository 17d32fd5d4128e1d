// blas::sigmoid and the dispatched fused-epilogue tile: the sigmoid is
// within 2 ULP of a double-precision reference, saturates to exactly 0 and
// 1 where 1 / (1 + expf(-x)) did, and maps NaN to NaN; every kernel tier's
// epilogue is bitwise equal to the scalar reference on every fringe tile
// shape, for every combination of the four steps.
#include "blas/sigmoid.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "blas/dispatch.h"
#include "blas/epilogue.h"
#include "util/rng.h"

namespace bgqhf::blas {
namespace {

std::vector<KernelKind> supported_kernels() {
  std::vector<KernelKind> out;
  for (const KernelKind k : {KernelKind::kScalar, KernelKind::kSse2,
                             KernelKind::kAvx2, KernelKind::kAvx512}) {
    if (kernel_supported(k)) out.push_back(k);
  }
  return out;
}

EpilogueTileFn epilogue_of(KernelKind k) {
  const KernelKind prev = active_kernels().kind;
  EXPECT_TRUE(set_kernel_override(k)) << to_string(k);
  const EpilogueTileFn fn = active_kernels().epilogue_tile;
  set_kernel_override(prev);
  return fn;
}

/// Distance in representable floats (same-sign finite values).
std::int64_t ulp_distance(float a, float b) {
  const auto ordered = [](float v) {
    const std::int32_t i = std::bit_cast<std::int32_t>(v);
    return i < 0 ? static_cast<std::int64_t>(INT32_MIN) - i
                 : static_cast<std::int64_t>(i);
  };
  return std::llabs(ordered(a) - ordered(b));
}

float expf_formula(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// Every `stride`-th float in [lo, hi] (lo < 0 < hi), plus the ends.
std::vector<float> float_sweep(float lo, float hi, std::uint32_t stride) {
  std::vector<float> out;
  for (const float end : {lo, hi}) {
    const std::uint32_t sign = end < 0.0f ? 0x80000000u : 0u;
    const std::uint32_t top = std::bit_cast<std::uint32_t>(std::fabs(end));
    for (std::uint32_t b = 0; b <= top; b += stride) {
      out.push_back(std::bit_cast<float>(b | sign));
    }
    out.push_back(end);
  }
  return out;
}

/// The floats within `radius` representable steps of `center`.
std::vector<float> neighbourhood(float center, int radius) {
  std::vector<float> out;
  float v = center;
  for (int i = 0; i < radius; ++i) v = std::nextafter(v, -HUGE_VALF);
  for (int i = 0; i <= 2 * radius; ++i) {
    out.push_back(v);
    v = std::nextafter(v, HUGE_VALF);
  }
  return out;
}

TEST(Sigmoid, WithinTwoUlpOfDoubleReference) {
  std::int64_t worst = 0;
  float worst_x = 0.0f;
  for (const float x : float_sweep(-88.0f, 88.0f, 997)) {
    const float ref = static_cast<float>(
        1.0 / (1.0 + std::exp(-static_cast<double>(x))));
    const std::int64_t d = ulp_distance(sigmoid(x), ref);
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, 2) << "at x = " << worst_x;
}

TEST(Sigmoid, SaturatesWhereTheExpfFormulaDid) {
  // A strided sweep of both tails plus every float near the two edges:
  // 1 + e^-x rounds to 1 from x ~ 16.64, e^-x overflows from x ~ -88.72.
  std::vector<float> xs = float_sweep(-120.0f, 120.0f, 4093);
  for (const float edge : {16.6355324f, -88.7228394f}) {
    const std::vector<float> near = neighbourhood(edge, 4096);
    xs.insert(xs.end(), near.begin(), near.end());
  }
  for (const float x : xs) {
    const float old = expf_formula(x);
    const float now = sigmoid(x);
    ASSERT_EQ(old == 0.0f, now == 0.0f) << "x = " << x;
    ASSERT_EQ(old == 1.0f, now == 1.0f) << "x = " << x;
  }
  EXPECT_EQ(sigmoid(HUGE_VALF), 1.0f);
  EXPECT_EQ(sigmoid(-HUGE_VALF), 0.0f);
  EXPECT_EQ(sigmoid(std::numeric_limits<float>::max()), 1.0f);
  EXPECT_EQ(sigmoid(std::numeric_limits<float>::lowest()), 0.0f);
  EXPECT_EQ(sigmoid(0.0f), 0.5f);
  EXPECT_EQ(sigmoid(-0.0f), 0.5f);
  // Just above the overflow edge the result is a tiny subnormal, not 0.
  EXPECT_GT(sigmoid(-88.7f), 0.0f);
}

TEST(Sigmoid, NanGivesNan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(sigmoid(nan)));
  EXPECT_TRUE(std::isnan(sigmoid(-nan)));
}

TEST(EpilogueTile, SigmoidSweepMatchesScalarOnEveryKernel) {
  // One row through each kernel's epilogue: every lane position sees
  // values from the whole range, both saturation edges included.
  std::vector<float> xs = float_sweep(-100.0f, 100.0f, 65521);
  for (const float edge : {16.6355324f, -88.7228394f}) {
    const std::vector<float> near = neighbourhood(edge, 300);
    xs.insert(xs.end(), near.begin(), near.end());
  }
  GemmEpilogue ep;
  ep.act = EpilogueAct::kSigmoid;
  for (const KernelKind kind : supported_kernels()) {
    std::vector<float> row = xs;
    epilogue_of(kind)(ep, row.data(), row.size(), 1, row.size(), 0, 0,
                      nullptr);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(row[i]),
                std::bit_cast<std::uint32_t>(sigmoid(xs[i])))
          << to_string(kind) << " x = " << xs[i];
    }
  }
}

TEST(EpilogueTile, EveryKernelMatchesScalarOnFringeTiles) {
  util::Rng rng(29);
  // A 10 x 40 C block with ld 43 (tiles start mid-row), an aux matrix with
  // its own ld, and a bias / column-sum row.
  constexpr std::size_t kRows = 10, kCols = 40, kLd = 43, kAuxLd = 41;
  const float specials[] = {0.0f,    -0.0f,   90.0f,        -90.0f,
                            16.6f,   -88.75f, 1e30f,        -1e30f,
                            -17.0f,  88.0f,   1e-40f,       -3.5f};
  std::vector<float> c0(kRows * kLd), aux(kRows * kAuxLd), bias(kCols),
      sums0(kCols);
  for (std::size_t i = 0; i < c0.size(); ++i) {
    c0[i] = i % 7 == 3 ? specials[(i / 7) % std::size(specials)]
                       : static_cast<float>(rng.uniform(-20.0, 20.0));
  }
  for (std::size_t i = 0; i < aux.size(); ++i) {
    // Activation outputs: sigmoid/tanh range plus ReLU's zeros and
    // negatives.
    aux[i] = i % 5 == 0 ? 0.0f : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto& v : bias) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  for (auto& v : sums0) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  const EpilogueAct acts[] = {EpilogueAct::kNone, EpilogueAct::kSigmoid,
                              EpilogueAct::kTanh, EpilogueAct::kReLU};
  const std::size_t row0 = 1, col0 = 3;
  for (const KernelKind kind : supported_kernels()) {
    const EpilogueTileFn fn = epilogue_of(kind);
    for (std::size_t mr = 1; mr <= 8; ++mr) {
      for (std::size_t nr = 1; nr <= 33; ++nr) {
        for (int steps = 0; steps < 2 * 4 * 5 * 2; ++steps) {
          GemmEpilogue ep;
          if (steps & 1) ep.bias = bias.data();
          ep.act = acts[(steps / 2) % 4];
          const int deriv = (steps / 8) % 5;  // 0: no mask, 1-4: acts
          if (deriv != 0) {
            ep.deriv_aux = ConstMatrixView<float>{aux.data(), kRows, kCols,
                                                  kAuxLd};
            ep.deriv_act = acts[deriv - 1];
          }
          const bool with_sums = steps / 40 != 0;
          std::vector<float> c_ref = c0, c_got = c0;
          std::vector<float> s_ref = sums0, s_got = sums0;
          float* tile_ref = c_ref.data() + row0 * kLd + col0;
          float* tile_got = c_got.data() + row0 * kLd + col0;
          epilogue_tile_scalar(ep, tile_ref, kLd, mr, nr, row0, col0,
                               with_sums ? s_ref.data() : nullptr);
          fn(ep, tile_got, kLd, mr, nr, row0, col0,
             with_sums ? s_got.data() : nullptr);
          for (std::size_t i = 0; i < c0.size(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(c_got[i]),
                      std::bit_cast<std::uint32_t>(c_ref[i]))
                << to_string(kind) << " mr=" << mr << " nr=" << nr
                << " steps=" << steps << " element " << i;
          }
          for (std::size_t j = 0; j < kCols; ++j) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(s_got[j]),
                      std::bit_cast<std::uint32_t>(s_ref[j]))
                << to_string(kind) << " mr=" << mr << " nr=" << nr
                << " steps=" << steps << " col_sum " << j;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace bgqhf::blas
