// Figure 3: worker process cycle breakdown per function, for 1024-1-64,
// 2048-2-32 and 4096-4-16.
//
// Paper shapes reproduced: "for almost all function calls, as the MPI
// ranks increase, the computation time decreases (such as gradient_loss),
// while for other functions such as worker_curvature_product, the
// computation time can vary ... the algorithm randomly selects a small
// percentage of the data for this part of the computation".
#include <cstdio>

#include "bench_main.h"
#include "figures_common.h"

static int bench_main(int argc, char** argv) {
  using namespace bgqhf;
  using namespace bgqhf::bench;
  const ObsCli obs_cli = ObsCli::from_args(argc, argv);

  const bgq::HfWorkload workload = bgq::HfWorkload::paper_50h_ce();
  for (const ConfigTriple& c : breakdown_configs()) {
    print_header("Figure 3 (" + label(c) + "): worker cycles breakdown");
    util::Table table({"function", "Committed (Gcyc)", "IU_Empty (Gcyc)",
                       "AXU_Dep_Stall (Gcyc)", "FXU_Dep_Stall (Gcyc)",
                       "Other (Gcyc)"});
    const bgq::RunReport report = run_bgq(workload, c);
    for (const auto& fn : report.worker) {
      table.add_row({fn.name,
                     util::Table::fmt(fn.cycles.committed / 1e9, 2),
                     util::Table::fmt(fn.cycles.iu_empty / 1e9, 2),
                     util::Table::fmt(fn.cycles.axu_dep_stall / 1e9, 2),
                     util::Table::fmt(fn.cycles.fxu_dep_stall / 1e9, 2),
                     util::Table::fmt(fn.cycles.other / 1e9, 2)});
    }
    std::printf("%s", table.render().c_str());
  }

  print_header("Trend: worker compute seconds vs MPI ranks");
  util::Table trend({"config", "gradient_loss (s)",
                     "worker_curvature_product (s)", "heldout_loss (s)"});
  for (const ConfigTriple& c : breakdown_configs()) {
    const bgq::RunReport report = run_bgq(workload, c);
    trend.add_row(
        {label(c),
         util::Table::fmt(report.worker_fn("gradient_loss").compute_seconds,
                          1),
         util::Table::fmt(
             report.worker_fn("worker_curvature_product").compute_seconds,
             1),
         util::Table::fmt(report.worker_fn("heldout_loss").compute_seconds,
                          1)});
  }
  std::printf("%s", trend.render().c_str());

  // Measured counterpart: summed worker-side phase wall time from a
  // really-executed small HF run, via the registry behind PhaseStats.
  obs_cli.begin();
  const hf::TrainOutcome out = hf::train_distributed(measured_run_config(4));
  hf::PhaseStats workers_total;
  for (const auto& w : out.worker_phases) workers_total += w;
  print_header("Measured worker phases, summed (4 workers)");
  std::printf("%s", phase_table(workers_total).render().c_str());
  obs_cli.finish(run_registry(out));
  return 0;
}

int main(int argc, char** argv) {
  return bgqhf::bench::guarded_main([&] { return bench_main(argc, argv); });
}
