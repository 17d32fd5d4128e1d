// Supporting bench for Sec. V-A: measured throughput of the bgqhf SGEMM
// (blocked + packed + runtime-dispatched SIMD micro-kernel) against the
// naive triple loop, across the matrix shapes DNN training produces
// (tall-skinny batch x layer), plus the fused bias+activation forward path
// against the unfused three-sweep formulation.
//
// Two modes:
//   (default)      google-benchmark suite.
//   --json[=FILE]  standalone reporter: runs the standard trajectory shapes
//                  (512x2048x2048, tall-skinny 256x2048x440, the fused
//                  forward layer), serial and threaded, and emits a JSON
//                  object. BENCH_gemm.json at the repo root records these
//                  numbers per PR so later perf work has a baseline.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "blas/dispatch.h"
#include "blas/gemm.h"
#include "blas/precision.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using bgqhf::blas::ConstMatrixView;
using bgqhf::blas::EpilogueAct;
using bgqhf::blas::GemmEpilogue;
using bgqhf::blas::Matrix;
using bgqhf::blas::Trans;

Matrix<float> random_matrix(std::size_t r, std::size_t c,
                            std::uint64_t seed) {
  bgqhf::util::Rng rng(seed);
  Matrix<float> m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

void BM_SgemmBlocked(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const Matrix<float> a = random_matrix(m, k, 1);
  const Matrix<float> b = random_matrix(k, n, 2);
  Matrix<float> c(m, n);
  for (auto _ : state) {
    bgqhf::blas::gemm<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(),
                             b.view(), 0.0f, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * m * n * k, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_SgemmNaive(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const Matrix<float> a = random_matrix(m, k, 1);
  const Matrix<float> b = random_matrix(k, n, 2);
  Matrix<float> c(m, n);
  for (auto _ : state) {
    bgqhf::blas::gemm_naive<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(),
                                   b.view(), 0.0f, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * m * n * k, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_SgemmTransB(benchmark::State& state) {
  // The forward pass's X * W^T shape.
  const auto batch = static_cast<std::size_t>(state.range(0));
  const Matrix<float> x = random_matrix(batch, 360, 3);
  const Matrix<float> w = random_matrix(1024, 360, 4);
  Matrix<float> z(batch, 1024);
  for (auto _ : state) {
    bgqhf::blas::gemm<float>(Trans::kNo, Trans::kYes, 1.0f, x.view(),
                             w.view(), 0.0f, z.view());
    benchmark::DoNotOptimize(z.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * batch * 360 * 1024,
      benchmark::Counter::kIsIterationInvariantRate);
}

// Full fused forward layer: z = sigmoid(x * W^T + b) in one GEMM.
void BM_SgemmFusedForward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto in = static_cast<std::size_t>(state.range(1));
  const auto out = static_cast<std::size_t>(state.range(2));
  const Matrix<float> x = random_matrix(batch, in, 5);
  const Matrix<float> w = random_matrix(out, in, 6);
  const Matrix<float> bias = random_matrix(1, out, 7);
  Matrix<float> z(batch, out);
  GemmEpilogue<float> ep;
  ep.bias = bias.data();
  ep.act = EpilogueAct::kSigmoid;
  for (auto _ : state) {
    bgqhf::blas::gemm_fused<float>(Trans::kNo, Trans::kYes, 1.0f, x.view(),
                                   w.view(), 0.0f, z.view(), ep);
    benchmark::DoNotOptimize(z.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * batch * in * out, benchmark::Counter::kIsIterationInvariantRate);
}

// Unfused reference for the same layer: GEMM, then the separate bias and
// activation sweeps (the pre-fusion nn formulation).
void BM_SgemmUnfusedForward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto in = static_cast<std::size_t>(state.range(1));
  const auto out = static_cast<std::size_t>(state.range(2));
  const Matrix<float> x = random_matrix(batch, in, 5);
  const Matrix<float> w = random_matrix(out, in, 6);
  const Matrix<float> bias = random_matrix(1, out, 7);
  Matrix<float> z(batch, out);
  for (auto _ : state) {
    bgqhf::blas::gemm<float>(Trans::kNo, Trans::kYes, 1.0f, x.view(),
                             w.view(), 0.0f, z.view());
    for (std::size_t r = 0; r < z.rows(); ++r) {
      float* row = z.data() + r * z.cols();
      for (std::size_t c = 0; c < z.cols(); ++c) {
        row[c] = 1.0f / (1.0f + std::exp(-(row[c] + bias.data()[c])));
      }
    }
    benchmark::DoNotOptimize(z.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * batch * in * out, benchmark::Counter::kIsIterationInvariantRate);
}

// ---- --json trajectory reporter ----

double measure_gemm_gflops(std::size_t m, std::size_t n, std::size_t k,
                           bgqhf::util::ThreadPool* pool) {
  const Matrix<float> a = random_matrix(m, k, 1);
  const Matrix<float> b = random_matrix(k, n, 2);
  Matrix<float> c(m, n);
  bgqhf::blas::gemm<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(), b.view(),
                           0.0f, c.view(), pool);  // warm-up + pool priming
  const int reps = 5;
  bgqhf::util::Timer timer;
  for (int r = 0; r < reps; ++r) {
    bgqhf::blas::gemm<float>(Trans::kNo, Trans::kNo, 1.0f, a.view(),
                             b.view(), 0.0f, c.view(), pool);
  }
  return 2.0 * m * n * k * reps / timer.seconds() / 1e9;
}

double measure_fused_forward_gflops(std::size_t batch, std::size_t in,
                                    std::size_t out, bool fused) {
  const Matrix<float> x = random_matrix(batch, in, 5);
  const Matrix<float> w = random_matrix(out, in, 6);
  const Matrix<float> bias = random_matrix(1, out, 7);
  Matrix<float> z(batch, out);
  GemmEpilogue<float> ep;
  ep.bias = bias.data();
  ep.act = EpilogueAct::kSigmoid;
  auto run = [&] {
    if (fused) {
      bgqhf::blas::gemm_fused<float>(Trans::kNo, Trans::kYes, 1.0f, x.view(),
                                     w.view(), 0.0f, z.view(), ep);
    } else {
      bgqhf::blas::gemm<float>(Trans::kNo, Trans::kYes, 1.0f, x.view(),
                               w.view(), 0.0f, z.view());
      for (std::size_t r = 0; r < z.rows(); ++r) {
        float* row = z.data() + r * z.cols();
        for (std::size_t c = 0; c < z.cols(); ++c) {
          row[c] = 1.0f / (1.0f + std::exp(-(row[c] + bias.data()[c])));
        }
      }
    }
  };
  run();  // warm-up
  const int reps = 5;
  bgqhf::util::Timer timer;
  for (int r = 0; r < reps; ++r) run();
  return 2.0 * batch * in * out * reps / timer.seconds() / 1e9;
}

// Name of the microkernel a given precision tier actually dispatches to:
// fp32 runs the active table's own SGEMM kernel, while int8 falls back to
// the scalar reference below the avx512 tier.
const char* tier_kernel_name(bgqhf::blas::Precision p) {
  const bgqhf::blas::KernelKind kind = bgqhf::blas::active_kernels().kind;
  const bool avx512 = kind == bgqhf::blas::KernelKind::kAvx512;
  switch (p) {
    case bgqhf::blas::Precision::kInt8:
      return avx512 ? "int8(avx512)" : "int8(scalar)";
    case bgqhf::blas::Precision::kFp32:
    default:
      return to_string(kind);
  }
}

// Emits one reduced-precision section. Measurements run with the precision
// override pinned for the section, so gemm<float> routes through the int8
// engine; fp32 is restored before returning. `fp32_serial` is the
// matched-shape fp32 number the trajectory gate divides by. A tier that
// would run the scalar reference kernel (a forced or older ISA) is named
// and skipped: timing it takes minutes and measures no shipped kernel.
void emit_precision_section(std::FILE* out, const char* name,
                            bgqhf::blas::Precision p,
                            bgqhf::util::ThreadPool* pool,
                            double fp32_serial, bool trailing_comma) {
  const char* kernel = tier_kernel_name(p);
  if (std::strstr(kernel, "(scalar)") != nullptr) {
    std::fprintf(out, "  \"%s\": {\n", name);
    std::fprintf(out, "    \"kernel\": \"%s\",\n", kernel);
    std::fprintf(out,
                 "    \"skipped\": \"the scalar reference kernel is not "
                 "timed\"\n");
    std::fprintf(out, "  }%s\n", trailing_comma ? "," : "");
    return;
  }
  bgqhf::blas::set_precision_override(p);
  const double serial = measure_gemm_gflops(512, 2048, 2048, nullptr);
  const double threaded = measure_gemm_gflops(512, 2048, 2048, pool);
  const double tall = measure_gemm_gflops(256, 2048, 440, nullptr);
  const double fused = measure_fused_forward_gflops(512, 2048, 2048, true);
  bgqhf::blas::set_precision_override(bgqhf::blas::Precision::kFp32);
  std::fprintf(out, "  \"%s\": {\n", name);
  std::fprintf(out, "    \"kernel\": \"%s\",\n", kernel);
  std::fprintf(out, "    \"sgemm_512x2048x2048_serial\": %.3f,\n", serial);
  std::fprintf(out, "    \"sgemm_512x2048x2048_threaded\": %.3f,\n",
               threaded);
  std::fprintf(out, "    \"sgemm_256x2048x440_serial\": %.3f,\n", tall);
  std::fprintf(out, "    \"fused_forward_512x2048x2048\": %.3f,\n", fused);
  std::fprintf(out, "    \"speedup_vs_fp32_512x2048x2048\": %.3f\n",
               serial / fp32_serial);
  std::fprintf(out, "  }%s\n", trailing_comma ? "," : "");
}

int run_json_reporter(const char* path) {
  bgqhf::util::ThreadPool pool(4);
  std::FILE* out = (path == nullptr || path[0] == '\0')
                       ? stdout
                       : std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_gemm: cannot open %s\n", path);
    return 1;
  }
  // Pin fp32 for the baseline sections regardless of ambient
  // BGQHF_PRECISION; the int8 section below sets its own override.
  bgqhf::blas::set_precision_override(bgqhf::blas::Precision::kFp32);
  const double fp32_serial = measure_gemm_gflops(512, 2048, 2048, nullptr);
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"bench_gemm\",\n");
  std::fprintf(out, "  \"kernel\": \"%s\",\n",
               to_string(bgqhf::blas::active_kernels().kind));
  std::fprintf(out, "  \"sgemm_kernel\": \"%s\",\n",
               tier_kernel_name(bgqhf::blas::Precision::kFp32));
  std::fprintf(out, "  \"pool_threads\": %zu,\n", pool.size());
  std::fprintf(out, "  \"units\": \"GFLOP/s\",\n");
  std::fprintf(out, "  \"sgemm_512x2048x2048_serial\": %.3f,\n", fp32_serial);
  std::fprintf(out, "  \"sgemm_512x2048x2048_threaded\": %.3f,\n",
               measure_gemm_gflops(512, 2048, 2048, &pool));
  std::fprintf(out, "  \"sgemm_256x2048x440_serial\": %.3f,\n",
               measure_gemm_gflops(256, 2048, 440, nullptr));
  std::fprintf(out, "  \"sgemm_256x2048x440_threaded\": %.3f,\n",
               measure_gemm_gflops(256, 2048, 440, &pool));
  std::fprintf(out, "  \"fused_forward_512x2048x2048\": %.3f,\n",
               measure_fused_forward_gflops(512, 2048, 2048, true));
  std::fprintf(out, "  \"unfused_forward_512x2048x2048\": %.3f,\n",
               measure_fused_forward_gflops(512, 2048, 2048, false));
  emit_precision_section(out, "int8", bgqhf::blas::Precision::kInt8, &pool,
                         fp32_serial, /*trailing_comma=*/false);
  bgqhf::blas::reset_precision();
  std::fprintf(out, "}\n");
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace

BENCHMARK(BM_SgemmBlocked)
    ->Args({64, 64, 64})
    ->Args({128, 128, 128})
    ->Args({256, 256, 256})
    ->Args({512, 512, 512})
    ->Args({512, 1024, 360})
    ->Args({512, 2048, 2048})   // trajectory shape (BENCH_gemm.json)
    ->Args({256, 2048, 440})    // tall-skinny trajectory shape
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SgemmNaive)
    ->Args({64, 64, 64})
    ->Args({128, 128, 128})
    ->Args({256, 256, 256})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SgemmTransB)->Arg(128)->Arg(512)->Arg(1024)->Unit(
    benchmark::kMicrosecond);
BENCHMARK(BM_SgemmFusedForward)
    ->Args({512, 2048, 2048})
    ->Args({256, 440, 2048})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SgemmUnfusedForward)
    ->Args({512, 2048, 2048})
    ->Args({256, 440, 2048})
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json", 6) == 0) {
      const char* path = argv[i][6] == '=' ? argv[i] + 7 : nullptr;
      return run_json_reporter(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
