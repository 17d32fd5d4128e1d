// Reduced-precision tier suite: BGQHF_PRECISION parsing and typed config
// errors, bf16 conversion semantics, bf16 mode leaving GEMM on the fp32
// engine, accuracy of the int8 engine vs gemm_naive, exactness on operands
// int8 represents exactly, cross-ISA bitwise parity (scalar reference vs
// AVX-512 VNNI), fused-epilogue and threading invariance, and the
// pre-packed int8 weights path the serving stack uses.
#include "blas/gemm_mixed.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "blas/dispatch.h"
#include "blas/precision.h"
#include "util/config.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace bgqhf::blas {
namespace {

class ScopedKernel {
 public:
  explicit ScopedKernel(KernelKind k) : prev_(active_kernels().kind) {
    EXPECT_TRUE(set_kernel_override(k)) << to_string(k);
  }
  ~ScopedKernel() { set_kernel_override(prev_); }

 private:
  KernelKind prev_;
};

class ScopedPrecision {
 public:
  explicit ScopedPrecision(Precision p) : prev_(active_precision()) {
    set_precision_override(p);
  }
  ~ScopedPrecision() { set_precision_override(prev_); }

 private:
  Precision prev_;
};

Matrix<float> random_matrix(std::size_t r, std::size_t c, util::Rng& rng,
                            double lo = -1.0, double hi = 1.0) {
  Matrix<float> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      m(i, j) = static_cast<float>(rng.uniform(lo, hi));
    }
  }
  return m;
}

Matrix<float> random_int_matrix(std::size_t r, std::size_t c, util::Rng& rng,
                                int lo, int hi) {
  Matrix<float> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      m(i, j) = static_cast<float>(
          static_cast<int>(rng.uniform(lo, hi + 1)));
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

// ---- knob parsing / typed errors ----

TEST(Precision, ParseAcceptsTiersAndDefaultsToFp32) {
  EXPECT_EQ(parse_precision(""), Precision::kFp32);
  EXPECT_EQ(parse_precision("fp32"), Precision::kFp32);
  EXPECT_EQ(parse_precision("bf16"), Precision::kBf16);
  EXPECT_EQ(parse_precision("int8"), Precision::kInt8);
}

TEST(Precision, UnknownValueThrowsTypedConfigError) {
  try {
    parse_precision("fp16");
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_EQ(e.knob(), "BGQHF_PRECISION");
    EXPECT_EQ(e.value(), "fp16");
  }
}

TEST(Precision, ActivePrecisionReadsEnvSnapshot) {
  util::RuntimeEnv env = util::RuntimeEnv::from_process_env();
  env.precision = "bf16";
  util::RuntimeEnv::set_for_tests(env);
  reset_precision();
  EXPECT_EQ(active_precision(), Precision::kBf16);

  env.precision = "float64";  // typo must be loud at first use
  util::RuntimeEnv::set_for_tests(env);
  reset_precision();
  EXPECT_THROW(active_precision(), util::ConfigError);

  util::RuntimeEnv::reset_for_tests();
  reset_precision();
  EXPECT_EQ(active_precision(), Precision::kFp32);
}

TEST(Dispatch, UnknownForceKernelThrowsTypedConfigError) {
  util::RuntimeEnv env = util::RuntimeEnv::from_process_env();
  env.force_kernel = "qpx";
  util::RuntimeEnv::set_for_tests(env);
  reset_kernel_dispatch();
  try {
    active_kernels();
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_EQ(e.knob(), "BGQHF_FORCE_KERNEL");
    EXPECT_EQ(e.value(), "qpx");
  }
  util::RuntimeEnv::reset_for_tests();
  reset_kernel_dispatch();
  EXPECT_NE(active_kernels().sgemm_microkernel, nullptr);
}

TEST(Dispatch, KnownButUnsupportedKernelStillFallsBack) {
  // "avx512" is always a *known* name, even on builds/CPUs that cannot run
  // it — those must warn-and-fall-back (CI portability), not throw.
  util::RuntimeEnv env = util::RuntimeEnv::from_process_env();
  env.force_kernel = "avx512";
  util::RuntimeEnv::set_for_tests(env);
  reset_kernel_dispatch();
  EXPECT_NO_THROW(active_kernels());
  util::RuntimeEnv::reset_for_tests();
  reset_kernel_dispatch();
}

// ---- bf16 conversion ----

TEST(Bf16, RoundTripAndRounding) {
  // Values with <= 8 significand bits survive the round trip exactly.
  for (const float v : {0.0f, 1.0f, -2.5f, 0.15625f, 3.25f, -127.0f}) {
    EXPECT_EQ(bf16_round(v), v) << v;
  }
  // Round-to-nearest-even: bf16 keeps 7 explicit mantissa bits, so the ULP
  // in [1, 2) is 2^-7. 1 + 2^-8 is exactly between 1.0 and 1 + 2^-7; ties
  // go to the even significand (1.0). Just above the tie rounds up.
  EXPECT_EQ(bf16_round(1.0f + 0x1.0p-8f), 1.0f);
  EXPECT_EQ(bf16_round(1.0f + 0x1.8p-8f), 1.0f + 0x1.0p-7f);
  // NaN stays NaN (never truncates to infinity), infinities survive.
  EXPECT_TRUE(std::isnan(bf16_round(std::nanf(""))));
  EXPECT_EQ(bf16_round(HUGE_VALF), HUGE_VALF);
  // Relative error of a round is bounded by 2^-9.
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.uniform(-100.0, 100.0));
    EXPECT_LE(std::fabs(bf16_round(v) - v), std::fabs(v) * 0x1.0p-8f) << v;
  }
}

// ---- engine accuracy vs gemm_naive ----

std::vector<KernelKind> reduced_kernels() {
  std::vector<KernelKind> out{KernelKind::kScalar};
  if (kernel_supported(KernelKind::kAvx512)) {
    out.push_back(KernelKind::kAvx512);
  }
  return out;
}

TEST(ReducedGemm, Bf16ModeKeepsGemmOnTheFp32Engine) {
  // bf16 narrows the collectives' wire only: float GEMM under kBf16 must be
  // the fp32 result bit for bit, fused epilogue and column sums included.
  util::Rng rng(5);
  const std::size_t m = 37, n = 29, k = 300;
  const Matrix<float> a = random_matrix(m, k, rng);
  const Matrix<float> b = random_matrix(n, k, rng);  // used as op(B) = B^T
  std::vector<float> bias(n);
  for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const Matrix<float> c0 = random_matrix(m, n, rng);

  Matrix<float> c[2] = {c0, c0};
  std::vector<float> sums[2] = {std::vector<float>(n, 0.0f),
                                std::vector<float>(n, 0.0f)};
  const Precision modes[2] = {Precision::kFp32, Precision::kBf16};
  for (int t = 0; t < 2; ++t) {
    ScopedPrecision mode(modes[t]);
    GemmEpilogue<float> ep;
    ep.bias = bias.data();
    ep.act = EpilogueAct::kTanh;
    ep.col_sums = sums[t].data();
    gemm_fused<float>(Trans::kNo, Trans::kYes, 0.75f, a.view(), b.view(),
                      0.5f, c[t].view(), ep);
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(c[0](i, j), c[1](i, j)) << i << "," << j;
    }
  }
  for (std::size_t j = 0; j < n; ++j) ASSERT_EQ(sums[0][j], sums[1][j]) << j;
}

TEST(ReducedGemm, Int8ExactOnIntegerOperandsAtFullScale) {
  // Rows/columns whose max-abs is exactly 127 quantize with scale 1, so
  // integer operands pass through exactly and the integer accumulation is
  // exact: the int8 engine must equal the fp64 reference bitwise.
  ScopedPrecision mode(Precision::kInt8);
  for (const KernelKind kind : reduced_kernels()) {
    ScopedKernel guard(kind);
    util::Rng rng(9);
    Matrix<float> a = random_int_matrix(17, 20, rng, -127, 127);
    Matrix<float> b = random_int_matrix(20, 19, rng, -127, 127);
    for (std::size_t i = 0; i < a.rows(); ++i) a(i, 0) = 127.0f;
    for (std::size_t j = 0; j < b.cols(); ++j) b(0, j) = 127.0f;
    Matrix<float> c(17, 19), c_ref(17, 19);
    gemm<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
                c.view());
    gemm_naive<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
                      c_ref.view());
    EXPECT_EQ(max_abs_diff(c, c_ref), 0.0) << to_string(kind);
  }
}

TEST(ReducedGemm, Int8QuantizationErrorIsBounded) {
  ScopedPrecision mode(Precision::kInt8);
  util::Rng rng(13);
  const std::size_t m = 33, k = 64, n = 41;
  const Matrix<float> a = random_matrix(m, k, rng);
  const Matrix<float> b = random_matrix(k, n, rng);
  Matrix<float> c(m, n), c_ref(m, n);
  gemm<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
              c.view());
  gemm_naive<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
                    c_ref.view());
  // Worst-case rounding: ~0.5 LSB per operand per product; LSB ~= 1/127
  // at unit max-abs. k * (0.5/127 + 0.5/127 + small) with slack.
  EXPECT_LT(max_abs_diff(c, c_ref), 1.5 * k / 127.0);
}

// ---- cross-ISA bitwise parity ----

TEST(ReducedGemm, ScalarAndAvx512AreBitwiseIdenticalPerMode) {
  if (!kernel_supported(KernelKind::kAvx512)) {
    GTEST_SKIP() << "no AVX-512 VNNI on this host";
  }
  const std::size_t dims[] = {1, 5, 8, 13, 16, 29, 64};
  ScopedPrecision mode(Precision::kInt8);
  for (const std::size_t m : dims) {
    for (const std::size_t n : dims) {
      const std::size_t k = 37;  // odd: int8 k-group padding in play
      util::Rng rng(m * 131 + n * 17 + static_cast<int>(Precision::kInt8));
      const Matrix<float> a = random_matrix(m, k, rng, -3.0, 3.0);
      const Matrix<float> b = random_matrix(k, n, rng, -3.0, 3.0);
      Matrix<float> c_scalar(m, n), c_simd(m, n);
      {
        ScopedKernel guard(KernelKind::kScalar);
        gemm<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
                    c_scalar.view());
      }
      {
        ScopedKernel guard(KernelKind::kAvx512);
        gemm<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
                    c_simd.view());
      }
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(c_scalar(i, j), c_simd(i, j))
              << "m=" << m << " n=" << n << " @" << i << "," << j;
        }
      }
    }
  }
}

// ---- fusion and threading invariance ----

TEST(ReducedGemm, FusedEpilogueMatchesUnfusedBitwise) {
  ScopedPrecision mode(Precision::kInt8);
  util::Rng rng(21);
  const std::size_t m = 45, n = 37, k = 60;
  const Matrix<float> a = random_matrix(m, k, rng);
  const Matrix<float> b = random_matrix(k, n, rng);
  std::vector<float> bias(n);
  for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  Matrix<float> c_ref(m, n);
  gemm<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
              c_ref.view());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      c_ref(i, j) = 1.0f / (1.0f + std::exp(-(c_ref(i, j) + bias[j])));
    }
  }

  Matrix<float> c_fused(m, n);
  GemmEpilogue<float> ep;
  ep.bias = bias.data();
  ep.act = EpilogueAct::kSigmoid;
  gemm_fused<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(), 0.0f,
                    c_fused.view(), ep);
  EXPECT_EQ(max_abs_diff(c_fused, c_ref), 0.0);
}

TEST(ReducedGemm, ThreadedMatchesSerialBitwise) {
  ScopedPrecision mode(Precision::kInt8);
  util::Rng rng(23);
  const std::size_t m = 130, n = 210, k = 70;
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

  EXPECT_EQ(max_abs_diff(c_serial, c_par), 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_EQ(sums_serial[j], sums_par[j]) << j;
  }
}

TEST(ReducedGemm, DegenerateShapesStillSweepEpilogue) {
  ScopedPrecision mode(Precision::kInt8);
  Matrix<float> a(4, 0), b(0, 6), c(4, 6);
  c.fill(2.0f);
  std::vector<float> bias(6, 1.0f);
  GemmEpilogue<float> ep;
  ep.bias = bias.data();
  ep.act = EpilogueAct::kReLU;
  gemm_fused<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(),
                    -0.5f, c.view(), ep);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      ASSERT_FLOAT_EQ(c(i, j), 0.0f);
    }
  }
}

// ---- pre-packed int8 weights (the serving path) ----

TEST(Int8Packed, PackedWeightsMatchDynamicEngineBitwise) {
  // Same quantization scheme, same kernel, same write-back: the pre-packed
  // path must reproduce the dynamic int8 engine exactly.
  ScopedPrecision mode(Precision::kInt8);
  util::Rng rng(31);
  const std::size_t m = 29, k = 44, n = 35;
  const Matrix<float> x = random_matrix(m, k, rng);
  const Matrix<float> w = random_matrix(n, k, rng);  // weights, W: n x k

  Matrix<float> c_dyn(m, n);
  gemm<float>(Trans::kNo, Trans::kYes, 1.0f, x.view(), w.view(), 0.0f,
              c_dyn.view());

  const Int8PackedMatrix bq = pack_b_int8(w.view(), /*trans=*/true);
  EXPECT_EQ(bq.k, k);
  EXPECT_EQ(bq.n, n);
  Int8Scratch scratch;
  Matrix<float> c_packed(m, n);
  gemm_int8_packed(x.view(), bq, c_packed.view(), GemmEpilogue<float>{},
                   scratch);
  EXPECT_EQ(max_abs_diff(c_dyn, c_packed), 0.0);
}

TEST(Int8Packed, PrequantizedWeightsMatchFloatPacking) {
  // Quantizing W row-wise with the engine's own formula and feeding the
  // int8 result through pack_int8_weights must produce the identical
  // packed operand (the quantized-checkpoint load path must not re-derive
  // anything).
  util::Rng rng(37);
  const std::size_t n = 21, k = 30;
  const Matrix<float> w = random_matrix(n, k, rng);
  std::vector<std::int8_t> wq(n * k);
  std::vector<float> scale(n);
  for (std::size_t i = 0; i < n; ++i) {
    float amax = 0.0f;
    for (std::size_t j = 0; j < k; ++j) {
      amax = std::max(amax, std::fabs(w(i, j)));
    }
    scale[i] = amax > 0.0f ? amax / 127.0f : 1.0f;
    for (std::size_t j = 0; j < k; ++j) {
      const long q = std::lrintf(w(i, j) / scale[i]);
      wq[i * k + j] =
          static_cast<std::int8_t>(std::clamp<long>(q, -127, 127));
    }
  }
  const Int8PackedMatrix from_float = pack_b_int8(w.view(), /*trans=*/true);
  const Int8PackedMatrix from_q =
      pack_int8_weights(wq.data(), n, k, scale.data());
  EXPECT_EQ(from_float.panels, from_q.panels);
  EXPECT_EQ(from_float.col_sums, from_q.col_sums);
  ASSERT_EQ(from_float.col_scale.size(), from_q.col_scale.size());
  for (std::size_t j = 0; j < from_float.col_scale.size(); ++j) {
    ASSERT_EQ(from_float.col_scale[j], from_q.col_scale[j]) << j;
  }
}

TEST(Int8Packed, StaticScaleClampsOutliers) {
  // A static activation scale calibrated at 1.0 saturates values beyond
  // +-127 * scale instead of stretching the grid (that is the point of
  // calibration); in-range values still dequantize to within one LSB.
  const std::size_t m = 8, k = 8, n = 4;
  Matrix<float> x(m, k);
  x.fill(0.5f);
  x(0, 0) = 400.0f;  // outlier beyond the static range
  Matrix<float> w(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) w(i, j) = (i == 0 && j == 0) ? 1 : 0;
  }
  const Int8PackedMatrix bq = pack_b_int8(w.view(), /*trans=*/true);
  Int8Scratch scratch;
  Matrix<float> c(m, n);
  const float scale = 1.0f / 127.0f;  // representable range [-1, 1]
  gemm_int8_packed(x.view(), bq, c.view(), GemmEpilogue<float>{}, scratch,
                   scale);
  EXPECT_NEAR(c(0, 0), 1.0f, 1e-6);           // clamped to range max
  EXPECT_NEAR(c(1, 0), 0.5f, scale * 0.5f + 1e-6);  // in-range survives
}

}  // namespace
}  // namespace bgqhf::blas
