// Measured per-phase timing of the *functional* distributed runtime — the
// small-scale, really-executed analogue of Figures 2-5.
//
// Runs the same distributed HF training at 2, 4 and 8 workers on a fixed
// corpus and prints master/worker wall time per phase. The paper's trends
// show up in miniature: per-worker gradient compute shrinks as workers
// grow (fixed total data), while the master's aggregate coordination cost
// does not.
#include <cstdio>

#include "bench_main.h"
#include "hf/trainer.h"
#include "util/table.h"

static int bench_main() {
  using namespace bgqhf;

  hf::TrainerConfig base;
  base.workers = 2;
  base.corpus.hours = 0.02;
  base.corpus.feature_dim = 12;
  base.corpus.num_states = 5;
  base.corpus.mean_utt_seconds = 1.5;
  base.corpus.seed = 7;
  base.context = 2;
  base.hidden = {24};
  base.heldout_every_kth = 4;
  base.hf.max_iterations = 4;
  base.hf.hyper.cg_max_iters = 20;

  const hf::Phase phases[] = {
      hf::Phase::kLoadData,        hf::Phase::kSyncWeights,
      hf::Phase::kGradient,        hf::Phase::kCurvaturePrepare,
      hf::Phase::kCurvatureProduct, hf::Phase::kHeldoutLoss,
  };

  for (const int workers : {2, 4, 8}) {
    hf::TrainerConfig cfg = base;
    cfg.workers = workers;
    const hf::TrainOutcome out = hf::train_distributed(cfg);

    hf::PhaseStats worker_mean;
    for (const auto& w : out.worker_phases) worker_mean += w;

    std::printf("\n=== Measured phases, %d workers (total %.2f s) ===\n",
                workers, out.seconds);
    util::Table table({"phase", "master (s)", "mean worker (s)",
                       "master calls"});
    for (const hf::Phase phase : phases) {
      table.add_row(
          {hf::to_string(phase),
           util::Table::fmt(out.master_phases.seconds(phase), 3),
           util::Table::fmt(worker_mean.seconds(phase) / workers, 3),
           std::to_string(out.master_phases.calls(phase))});
    }
    std::printf("%s", table.render().c_str());
  }
  std::printf(
      "\nPer-worker gradient/heldout compute shrinks as workers grow "
      "(fixed corpus),\nmirroring Fig. 3's gradient_loss trend at rack "
      "scale.\n");
  return 0;
}

int main() { return bgqhf::bench::guarded_main(bench_main); }
