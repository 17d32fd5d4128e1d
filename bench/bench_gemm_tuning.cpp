// Cache-blocking parameter sweep for the SGEMM (Sec. V-A's tuning story
// in miniature): measure GFLOP/s across MC/KC/NC choices on a DNN-shaped
// multiply and report the best configuration for this host.
#include <cstdio>

#include "bench_main.h"
#include "blas/gemm.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using bgqhf::blas::GemmBlocking;
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

double measure_gflops(const GemmBlocking& blocking) {
  // Forward-pass shape: batch x in times (out x in)^T.
  const std::size_t batch = 512, in = 512, out = 512;
  const Matrix<float> x = random_matrix(batch, in, 1);
  const Matrix<float> w = random_matrix(out, in, 2);
  Matrix<float> z(batch, out);
  // Warm-up.
  bgqhf::blas::gemm<float>(Trans::kNo, Trans::kYes, 1.0f, x.view(), w.view(),
                           0.0f, z.view(), nullptr, blocking);
  const int reps = 5;
  bgqhf::util::Timer timer;
  for (int r = 0; r < reps; ++r) {
    bgqhf::blas::gemm<float>(Trans::kNo, Trans::kYes, 1.0f, x.view(),
                             w.view(), 0.0f, z.view(), nullptr, blocking);
  }
  const double seconds = timer.seconds() / reps;
  return 2.0 * batch * in * out / seconds / 1e9;
}

}  // namespace

static int bench_main() {
  using bgqhf::util::Table;
  std::printf("\n=== SGEMM cache-blocking sweep (512^3 forward shape) ===\n");
  Table table({"MC", "KC", "NC", "GFLOP/s"});
  double best = 0.0;
  GemmBlocking best_blocking;
  for (const std::size_t mc : {64u, 128u, 256u}) {
    for (const std::size_t kc : {128u, 256u, 512u}) {
      for (const std::size_t nc : {512u, 2048u}) {
        const GemmBlocking blocking{mc, kc, nc};
        const double gflops = measure_gflops(blocking);
        table.add_row({std::to_string(mc), std::to_string(kc),
                       std::to_string(nc), Table::fmt(gflops, 2)});
        if (gflops > best) {
          best = gflops;
          best_blocking = blocking;
        }
      }
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nbest on this host: MC=%zu KC=%zu NC=%zu at %.2f GFLOP/s\n",
              best_blocking.mc, best_blocking.kc, best_blocking.nc, best);
  return 0;
}

int main() { return bgqhf::bench::guarded_main(bench_main); }
