// Kernel-dispatch parity suite: every micro-kernel the build/CPU offers
// (scalar reference, SSE2, AVX2+FMA, AVX-512) must agree with gemm_naive
// across all mr/nr fringe combinations, both Trans settings, and beta in
// {0, 1, 0.5}; the AVX-512 kernel must agree with the AVX2 one *bitwise*;
// and the fused-epilogue path must agree with the unfused reference
// *bitwise* (same kernel, same scalar formulas, same application order --
// fusion changes when the elementwise tail runs, not what it computes).
#include "blas/dispatch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "blas/gemm.h"
#include "blas/level1.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace bgqhf::blas {
namespace {

std::vector<KernelKind> supported_kernels() {
  std::vector<KernelKind> out{KernelKind::kScalar};
  if (kernel_supported(KernelKind::kSse2)) out.push_back(KernelKind::kSse2);
  if (kernel_supported(KernelKind::kAvx2)) out.push_back(KernelKind::kAvx2);
  if (kernel_supported(KernelKind::kAvx512)) {
    out.push_back(KernelKind::kAvx512);
  }
  return out;
}

/// Pin the dispatch table to one kernel for the scope of a test.
class ScopedKernel {
 public:
  explicit ScopedKernel(KernelKind k) : prev_(active_kernels().kind) {
    EXPECT_TRUE(set_kernel_override(k)) << to_string(k);
  }
  ~ScopedKernel() { set_kernel_override(prev_); }

 private:
  KernelKind prev_;
};

Matrix<float> random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix<float> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      m(i, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  return m;
}

double max_abs_diff(const Matrix<float>& a, const Matrix<float>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      worst = std::max(worst, std::abs(static_cast<double>(a(i, j)) -
                                       static_cast<double>(b(i, j))));
    }
  }
  return worst;
}

bool same_bits(const float* x, const float* y, std::size_t n) {
  return std::memcmp(x, y, n * sizeof(float)) == 0;
}

TEST(Dispatch, ProbeAndOverrideAreConsistent) {
  EXPECT_TRUE(kernel_supported(KernelKind::kScalar));
  EXPECT_TRUE(kernel_supported(detect_best_kernel()));
  for (const KernelKind k : supported_kernels()) {
    ScopedKernel guard(k);
    EXPECT_EQ(active_kernels().kind, k);
    EXPECT_NE(active_kernels().sgemm_microkernel, nullptr);
    EXPECT_NE(active_kernels().sdot, nullptr);
    EXPECT_NE(active_kernels().saxpy, nullptr);
    EXPECT_NE(active_kernels().sscal, nullptr);
  }
}

TEST(Dispatch, OverrideRejectsUnsupportedKernel) {
  if (kernel_supported(KernelKind::kAvx2)) {
    GTEST_SKIP() << "every kernel is supported on this host";
  }
  const KernelKind before = active_kernels().kind;
  EXPECT_FALSE(set_kernel_override(KernelKind::kAvx2));
  EXPECT_EQ(active_kernels().kind, before);
}

// Every (m % 8, n % 8) fringe pair, exercised through the full blocked
// driver so packing, 2-D tiling, and the kernels' partial-tile writeback
// paths are all covered.
TEST(DispatchParity, AllFringesAllTransAllBeta) {
  const std::size_t dims[] = {1, 2, 3, 4, 5, 6, 7, 8, 11, 14, 16, 21};
  const float betas[] = {0.0f, 1.0f, 0.5f};
  for (const KernelKind kind : supported_kernels()) {
    ScopedKernel guard(kind);
    for (const std::size_t m : dims) {
      for (const std::size_t n : dims) {
        const std::size_t k = 17;  // k fringe vs the packed panels
        for (const bool ta : {false, true}) {
          for (const bool tb : {false, true}) {
            for (const float beta : betas) {
              util::Rng rng(m * 1315423911u + n * 2654435761u + (ta ? 1 : 0) +
                            (tb ? 2 : 0) + static_cast<std::uint64_t>(
                                               beta * 4.0f));
              const Matrix<float> a = ta ? random_matrix(k, m, rng)
                                         : random_matrix(m, k, rng);
              const Matrix<float> b = tb ? random_matrix(n, k, rng)
                                         : random_matrix(k, n, rng);
              Matrix<float> c_fast = random_matrix(m, n, rng);
              Matrix<float> c_ref = c_fast;
              const Trans transa = ta ? Trans::kYes : Trans::kNo;
              const Trans transb = tb ? Trans::kYes : Trans::kNo;
              gemm<float>(transa, transb, 1.1f, a.view(), b.view(), beta,
                          c_fast.view());
              gemm_naive<float>(transa, transb, 1.1f, a.view(), b.view(),
                                beta, c_ref.view());
              ASSERT_LT(max_abs_diff(c_fast, c_ref), 1e-4)
                  << to_string(kind) << " m=" << m << " n=" << n
                  << " ta=" << ta << " tb=" << tb << " beta=" << beta;
            }
          }
        }
      }
    }
  }
}

// Multiple KC panels: beta must be applied exactly once (on the first
// k-block) and accumulation must run over the rest.
TEST(DispatchParity, BetaFoldingAcrossKPanels) {
  for (const KernelKind kind : supported_kernels()) {
    ScopedKernel guard(kind);
    for (const float beta : {0.0f, 1.0f, 0.5f}) {
      util::Rng rng(42 + static_cast<std::uint64_t>(beta * 8.0f));
      const Matrix<float> a = random_matrix(33, 600, rng);  // 3 KC panels
      const Matrix<float> b = random_matrix(600, 29, rng);
      Matrix<float> c_fast = random_matrix(33, 29, rng);
      Matrix<float> c_ref = c_fast;
      gemm<float>(Trans::kNo, Trans::kNo, 0.7f, a.view(), b.view(), beta,
                  c_fast.view());
      gemm_naive<float>(Trans::kNo, Trans::kNo, 0.7f, a.view(), b.view(),
                        beta, c_ref.view());
      EXPECT_LT(max_abs_diff(c_fast, c_ref), 2e-3)
          << to_string(kind) << " beta=" << beta;
    }
  }
}

// The avx512 SGEMM kernel computes each C element with the avx2 kernel's
// FMA chain and write-back rule, so auto-dispatch on an AVX-512 host must
// not change one bit: every (m % 16, n % 16) fringe, k over 1 and several
// kc blocks, both transposes, beta in {0, 1, 0.5}, the fused epilogue with
// column sums, serial and threaded.
TEST(DispatchParity, Avx512MatchesAvx2Bitwise) {
  if (!kernel_supported(KernelKind::kAvx512)) {
    GTEST_SKIP() << "CPU lacks AVX-512";
  }
  util::ThreadPool pool(4);
  util::ThreadPool* const pools[] = {nullptr, &pool};
  const float betas[] = {0.0f, 1.0f, 0.5f};
  for (std::size_t m = 17; m <= 32; ++m) {
    for (std::size_t n = 17; n <= 32; ++n) {
      for (const std::size_t k : {std::size_t{1}, std::size_t{17},
                                  std::size_t{600}}) {
        for (const bool ta : {false, true}) {
          for (const bool tb : {false, true}) {
            util::Rng rng(m * 7919u + n * 104729u + k + (ta ? 1 : 0) +
                          (tb ? 2 : 0));
            const Matrix<float> a =
                ta ? random_matrix(k, m, rng) : random_matrix(m, k, rng);
            const Matrix<float> b =
                tb ? random_matrix(n, k, rng) : random_matrix(k, n, rng);
            const Matrix<float> c0 = random_matrix(m, n, rng);
            const Matrix<float> aux = random_matrix(m, n, rng);
            std::vector<float> bias(n);
            for (auto& v : bias) v = static_cast<float>(rng.uniform(-1, 1));
            const Trans transa = ta ? Trans::kYes : Trans::kNo;
            const Trans transb = tb ? Trans::kYes : Trans::kNo;
            for (util::ThreadPool* p : pools) {
              for (const float beta : betas) {
                Matrix<float> c2 = c0, c5 = c0;
                {
                  ScopedKernel guard(KernelKind::kAvx2);
                  gemm<float>(transa, transb, 1.1f, a.view(), b.view(), beta,
                              c2.view(), p);
                }
                {
                  ScopedKernel guard(KernelKind::kAvx512);
                  gemm<float>(transa, transb, 1.1f, a.view(), b.view(), beta,
                              c5.view(), p);
                }
                ASSERT_TRUE(same_bits(c2.data(), c5.data(), m * n))
                    << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta
                    << " tb=" << tb << " beta=" << beta
                    << " threaded=" << (p != nullptr);
              }
              Matrix<float> c2 = c0, c5 = c0;
              std::vector<float> sums2(n, 0.25f), sums5(n, 0.25f);
              GemmEpilogue<float> ep;
              ep.bias = bias.data();
              ep.act = EpilogueAct::kTanh;
              ep.deriv_aux = aux.view();
              ep.deriv_act = EpilogueAct::kSigmoid;
              {
                ScopedKernel guard(KernelKind::kAvx2);
                ep.col_sums = sums2.data();
                gemm_fused<float>(transa, transb, 0.9f, a.view(), b.view(),
                                  0.5f, c2.view(), ep, p);
              }
              {
                ScopedKernel guard(KernelKind::kAvx512);
                ep.col_sums = sums5.data();
                gemm_fused<float>(transa, transb, 0.9f, a.view(), b.view(),
                                  0.5f, c5.view(), ep, p);
              }
              ASSERT_TRUE(same_bits(c2.data(), c5.data(), m * n))
                  << "fused m=" << m << " n=" << n << " k=" << k;
              ASSERT_TRUE(same_bits(sums2.data(), sums5.data(), n))
                  << "col_sums m=" << m << " n=" << n << " k=" << k;
            }
          }
        }
      }
    }
  }
}

TEST(DispatchParity, BetaZeroOverwritesNaN) {
  for (const KernelKind kind : supported_kernels()) {
    ScopedKernel guard(kind);
    Matrix<float> a(9, 5), b(5, 9), c(9, 9);
    a.fill(1.0f);
    b.fill(1.0f);
    c.fill(std::nanf(""));
    gemm<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
                c.view());
    for (std::size_t i = 0; i < 9; ++i) {
      for (std::size_t j = 0; j < 9; ++j) {
        ASSERT_FLOAT_EQ(c(i, j), 5.0f) << to_string(kind);
      }
    }
  }
}

TEST(DispatchParity, Level1KernelsMatchScalar) {
  for (const KernelKind kind : supported_kernels()) {
    util::Rng rng(7);
    const std::size_t n = 1037;  // odd tail exercises the fringe loops
    std::vector<float> x(n), y0(n);
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : y0) v = static_cast<float>(rng.uniform(-1.0, 1.0));

    set_kernel_override(KernelKind::kScalar);
    const double dot_ref = dot<float>(x, y0);
    std::vector<float> y_ref = y0;
    axpy<float>(0.3f, x, y_ref);
    scal<float>(1.7f, y_ref);

    ScopedKernel guard(kind);
    const double dot_simd = dot<float>(x, y0);
    std::vector<float> y_simd = y0;
    axpy<float>(0.3f, x, y_simd);
    scal<float>(1.7f, y_simd);

    EXPECT_NEAR(dot_simd, dot_ref, 1e-9 * n) << to_string(kind);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(y_simd[i], y_ref[i], 1e-6) << to_string(kind) << " " << i;
    }
  }
}

// ---- fused epilogue ----

float sigmoidf(float v) { return 1.0f / (1.0f + std::exp(-v)); }

// Unfused reference: gemm, then the separate bias/activation sweeps exactly
// as the pre-fusion nn code did them.
TEST(FusedEpilogue, BiasActivationMatchesUnfusedBitwise) {
  for (const KernelKind kind : supported_kernels()) {
    ScopedKernel guard(kind);
    util::Rng rng(11);
    const std::size_t m = 45, n = 37, k = 300;  // fringes + 2 KC panels
    const Matrix<float> a = random_matrix(m, k, rng);
    const Matrix<float> b = random_matrix(k, n, rng);
    std::vector<float> bias(n);
    for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));

    Matrix<float> c_ref(m, n);
    gemm<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
                c_ref.view());
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        c_ref(i, j) = sigmoidf(c_ref(i, j) + bias[j]);
      }
    }

    Matrix<float> c_fused(m, n);
    GemmEpilogue<float> ep;
    ep.bias = bias.data();
    ep.act = EpilogueAct::kSigmoid;
    gemm_fused<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
                      c_fused.view(), ep);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        // Same kernel, same scalar formulas, same order: bitwise equal.
        ASSERT_EQ(c_fused(i, j), c_ref(i, j))
            << to_string(kind) << " " << i << "," << j;
      }
    }
  }
}

TEST(FusedEpilogue, DerivMaskAndColSumsMatchUnfused) {
  for (const KernelKind kind : supported_kernels()) {
    ScopedKernel guard(kind);
    util::Rng rng(13);
    // 3 row blocks at the default mc=128 so the per-block column-sum
    // scratch reduction is exercised.
    const std::size_t m = 300, n = 43, k = 90;
    const Matrix<float> a = random_matrix(m, k, rng);
    const Matrix<float> b = random_matrix(k, n, rng);
    Matrix<float> aux(m, n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        aux(i, j) = static_cast<float>(rng.uniform(0.01, 0.99));
      }
    }

    Matrix<float> c_ref(m, n);
    gemm<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
                c_ref.view());
    std::vector<float> sums_ref(n, 0.5f);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        c_ref(i, j) *= aux(i, j) * (1.0f - aux(i, j));
      }
    }
    add_col_sums<float>(c_ref.view(), sums_ref);

    Matrix<float> c_fused(m, n);
    std::vector<float> sums_fused(n, 0.5f);
    GemmEpilogue<float> ep;
    ep.deriv_aux = aux.view();
    ep.deriv_act = EpilogueAct::kSigmoid;
    ep.col_sums = sums_fused.data();
    gemm_fused<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
                      c_fused.view(), ep);

    EXPECT_EQ(max_abs_diff(c_fused, c_ref), 0.0) << to_string(kind);
    for (std::size_t j = 0; j < n; ++j) {
      // Accumulation order over rows is identical (ascending within each
      // row block, blocks reduced in ascending order), so sums are bitwise
      // equal to the serial row-major reference only per-block; allow float
      // tolerance for the block-reordered addition.
      ASSERT_NEAR(sums_fused[j], sums_ref[j], 1e-4 * m)
          << to_string(kind) << " col " << j;
    }
  }
}

TEST(FusedEpilogue, ThreadedMatchesSerialBitwise) {
  util::Rng rng(17);
  const std::size_t m = 260, n = 500, k = 70;
  const Matrix<float> a = random_matrix(m, k, rng);
  const Matrix<float> b = random_matrix(k, n, rng);
  std::vector<float> bias(n);
  for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  GemmEpilogue<float> ep;
  ep.bias = bias.data();
  ep.act = EpilogueAct::kTanh;
  std::vector<float> sums_serial(n, 0.0f), sums_par(n, 0.0f);

  Matrix<float> c_serial(m, n), c_par(m, n);
  ep.col_sums = sums_serial.data();
  gemm_fused<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
                    c_serial.view(), ep, nullptr);
  util::ThreadPool pool(4);
  ep.col_sums = sums_par.data();
  gemm_fused<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
                    c_par.view(), ep, &pool);

  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(c_serial(i, j), c_par(i, j)) << i << "," << j;
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_EQ(sums_serial[j], sums_par[j]) << j;
  }
}

TEST(FusedEpilogue, DegenerateKStillAppliesEpilogue) {
  // k == 0 (or alpha == 0) has no k-loop to fold into; the epilogue must
  // still run over beta * C.
  Matrix<float> a(4, 0), b(0, 6), c(4, 6);
  c.fill(2.0f);
  std::vector<float> bias(6, 1.0f);
  std::vector<float> sums(6, 0.0f);
  GemmEpilogue<float> ep;
  ep.bias = bias.data();
  ep.act = EpilogueAct::kReLU;
  ep.col_sums = sums.data();
  gemm_fused<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), -0.5f,
                    c.view(), ep);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_FLOAT_EQ(c(i, j), 0.0f);  // relu(-0.5*2 + 1) = 0
    }
  }
  for (std::size_t j = 0; j < 6; ++j) EXPECT_FLOAT_EQ(sums[j], 0.0f);
}

TEST(FusedEpilogue, GemvMatchesNaiveAcrossKernels) {
  for (const KernelKind kind : supported_kernels()) {
    ScopedKernel guard(kind);
    util::Rng rng(23);
    const Matrix<float> a = random_matrix(37, 53, rng);
    std::vector<float> x(53), y(37, 0.25f), y_ref(37, 0.25f);
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    gemv<float>(Trans::kNo, 1.5f, a.view(), x.data(), 0.5f, y.data());
    for (std::size_t i = 0; i < 37; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < 53; ++j) acc += a(i, j) * x[j];
      y_ref[i] = static_cast<float>(1.5 * acc + 0.5 * y_ref[i]);
    }
    for (std::size_t i = 0; i < 37; ++i) {
      ASSERT_NEAR(y[i], y_ref[i], 1e-4) << to_string(kind);
    }
  }
}

}  // namespace
}  // namespace bgqhf::blas
