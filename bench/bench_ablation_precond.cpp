// Ablation for the paper's deferred feature: CG preconditioning.
//
// "Our implementation of Hessian-free optimization ... currently does not
// use a preconditioner [25]." We implement the Martens Jacobi
// preconditioner and measure, on a real (functional) training run, how it
// changes the CG iteration count and convergence — the payoff the authors
// deferred.
#include <cstdio>

#include "bench_main.h"
#include "hf/trainer.h"
#include "util/table.h"
#include "util/timer.h"

static int bench_main() {
  using namespace bgqhf;

  hf::TrainerConfig cfg;
  cfg.workers = 1;
  cfg.corpus.hours = 0.01;
  cfg.corpus.feature_dim = 16;
  cfg.corpus.num_states = 6;
  cfg.corpus.mean_utt_seconds = 1.5;
  cfg.corpus.seed = 31;
  cfg.context = 2;
  cfg.hidden = {32};
  cfg.heldout_every_kth = 4;
  cfg.hf.max_iterations = 8;
  cfg.hf.hyper.cg_max_iters = 60;
  cfg.hf.cg.progress_tol = 5e-4;

  std::printf("\n=== Jacobi preconditioner ablation (functional run) ===\n");
  util::Table table({"preconditioner", "total CG iters", "final held-out CE",
                     "accuracy", "wall (s)"});
  for (const bool precond : {false, true}) {
    hf::TrainerConfig run = cfg;
    run.hf.use_preconditioner = precond;
    util::Timer timer;
    const hf::TrainOutcome out = hf::train_serial(run);
    std::size_t cg_total = 0;
    for (const auto& it : out.hf.iterations) cg_total += it.cg_iterations;
    table.add_row({precond ? "Jacobi (Martens, xi=0.75)" : "none (paper)",
                   std::to_string(cg_total),
                   util::Table::fmt(out.hf.final_heldout_loss, 4),
                   util::Table::fmt(100 * out.hf.final_heldout_accuracy, 1) +
                       "%",
                   util::Table::fmt(timer.seconds(), 2)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int main() { return bgqhf::bench::guarded_main(bench_main); }
