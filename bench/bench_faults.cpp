// Degraded-mode overhead: distributed HF training with 0, 1 and 2 injected
// worker failures on a fixed corpus.
//
// Quantifies what the fault-tolerance layer costs and what it saves: the
// fault-free row is the baseline (its gap to ft-disabled runs is the
// fault-tolerance overhead), the 1- and 2-kill rows show detection stalls
// (one reply deadline, then a revoke and shrink) plus the slower
// convergence of training on the surviving data fraction only.
#include <cstdio>
#include <string>

#include "bench_main.h"
#include "figures_common.h"
#include "hf/trainer.h"
#include "util/table.h"

static int bench_main(int argc, char** argv) {
  using namespace bgqhf;
  using namespace bgqhf::bench;
  const ObsCli obs_cli = ObsCli::from_args(argc, argv);

  hf::TrainerConfig base;
  base.workers = 4;
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
  base.aggregation = {};  // FT rejects an env-set codec
  base.ft.enabled = true;
  base.ft.reply_timeout = 0.9375;  // 0.25 s waited out 3x, x1.5 backoff
  base.ft.command_timeout = 10.0;
  base.ft.verbose = false;

  // Fault tolerance off as the zero-overhead reference.
  hf::TrainerConfig collective = base;
  collective.ft = hf::FtOptions{};
  const hf::TrainOutcome reference = hf::train_distributed(collective);

  obs_cli.begin();
  obs::Registry run_metrics;
  util::Table table({"injected kills", "excluded", "total (s)",
                     "s / iteration", "final heldout loss"});
  for (const int kills : {0, 1, 2}) {
    hf::TrainerConfig cfg = base;
    // Kills land mid-training: after startup (7 ops) and into the first
    // iteration's CG loop.
    if (kills >= 1) cfg.faults.kills.push_back({/*rank=*/2, /*after_ops=*/40});
    if (kills >= 2) cfg.faults.kills.push_back({/*rank=*/4, /*after_ops=*/70});
    const hf::TrainOutcome out = hf::train_distributed(cfg);
    run_metrics += run_registry(out);

    std::string excluded;
    for (const int r : out.excluded_workers) {
      if (!excluded.empty()) excluded += ",";
      excluded += std::to_string(r);
    }
    if (excluded.empty()) excluded = "-";
    const double per_iter =
        out.hf.iterations.empty()
            ? 0.0
            : out.seconds / static_cast<double>(out.hf.iterations.size());
    table.add_row({std::to_string(kills), excluded,
                   util::Table::fmt(out.seconds, 2),
                   util::Table::fmt(per_iter, 2),
                   util::Table::fmt(out.hf.final_heldout_loss, 4)});
  }

  std::printf("=== Degraded-mode training, %d workers ===\n", base.workers);
  std::printf("fault tolerance off reference: %.2f s, final loss %.4f\n\n",
              reference.seconds, reference.hf.final_heldout_loss);
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nEach kill costs one detection stall (reply timeout, then shrink)\n"
      "and removes that worker's shard; survivor reweighting keeps the\n"
      "remaining sums unbiased, so the loss degrades only with the lost\n"
      "data fraction, not with protocol corruption.\n");
  obs_cli.finish(run_metrics);
  return 0;
}

int main(int argc, char** argv) {
  return bgqhf::bench::guarded_main([&] { return bench_main(argc, argv); });
}
