// Figure 2: master process cycle breakdown per function, for the three
// 64-threads/node decompositions (1024-1-64, 2048-2-32, 4096-4-16).
//
// Paper shapes reproduced: "As the number of MPI ranks increases, the
// master process needs to spend more time distributing the data
// (load_data) using point-to-point MPI calls and synchronizing the weights
// (sync_weights_master) using collective MPI calls."
#include <cstdio>

#include "bench_main.h"
#include "figures_common.h"

static int bench_main(int argc, char** argv) {
  using namespace bgqhf;
  using namespace bgqhf::bench;
  const ObsCli obs_cli = ObsCli::from_args(argc, argv);

  const bgq::HfWorkload workload = bgq::HfWorkload::paper_50h_ce();
  for (const ConfigTriple& c : breakdown_configs()) {
    print_header("Figure 2 (" + label(c) + "): master cycles breakdown");
    util::Table table({"function", "Committed (Gcyc)", "IU_Empty (Gcyc)",
                       "AXU_Dep_Stall (Gcyc)", "FXU_Dep_Stall (Gcyc)",
                       "Other (Gcyc)"});
    const bgq::RunReport report = run_bgq(workload, c);
    for (const auto& fn : report.master) {
      table.add_row({fn.name,
                     util::Table::fmt(fn.cycles.committed / 1e9, 2),
                     util::Table::fmt(fn.cycles.iu_empty / 1e9, 2),
                     util::Table::fmt(fn.cycles.axu_dep_stall / 1e9, 2),
                     util::Table::fmt(fn.cycles.fxu_dep_stall / 1e9, 2),
                     util::Table::fmt(fn.cycles.other / 1e9, 2)});
    }
    std::printf("%s", table.render().c_str());
  }

  // Trend summary the paper narrates.
  print_header("Trend: master load_data / sync_weights time vs MPI ranks");
  util::Table trend({"config", "load_data p2p (s)",
                     "sync_weights collective (s)"});
  for (const ConfigTriple& c : breakdown_configs()) {
    const bgq::RunReport report = run_bgq(workload, c);
    trend.add_row(
        {label(c),
         util::Table::fmt(report.master_fn("load_data").mpi_p2p_seconds, 1),
         util::Table::fmt(
             report.master_fn("sync_weights_master").mpi_collective_seconds,
             1)});
  }
  std::printf("%s", trend.render().c_str());

  // Measured counterpart: a really-executed small HF run, with the master's
  // per-phase wall time read back from the obs registry under the same row
  // labels the model tables chart.
  obs_cli.begin();
  const hf::TrainOutcome out = hf::train_distributed(measured_run_config(4));
  print_header("Measured master phases, functional run (4 workers)");
  std::printf("%s", phase_table(out.master_phases).render().c_str());
  obs_cli.finish(run_registry(out));
  return 0;
}

int main(int argc, char** argv) {
  return bgqhf::bench::guarded_main([&] { return bench_main(argc, argv); });
}
