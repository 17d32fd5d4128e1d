// Figure 5: worker MPI communication time per function, split into
// collective and point-to-point, for 1024-1-64, 2048-2-32 and 4096-4-16.
//
// Paper shapes reproduced: worker communication is almost entirely
// collective (weight-sync bcast participation, gradient/curvature
// reduces); the only point-to-point traffic is the one-time load_data
// shard receive.
#include <cstdio>

#include "bench_main.h"
#include "figures_common.h"
#include "hf/trainer.h"

static int bench_main(int argc, char** argv) {
  using namespace bgqhf;
  using namespace bgqhf::bench;
  const ObsCli obs_cli = ObsCli::from_args(argc, argv);

  const bgq::HfWorkload workload = bgq::HfWorkload::paper_50h_ce();
  for (const ConfigTriple& c : breakdown_configs()) {
    print_header("Figure 5 (" + label(c) + "): worker MPI time");
    util::Table table({"function", "collective (s)", "point-to-point (s)"});
    const bgq::RunReport report = run_bgq(workload, c);
    for (const auto& fn : report.worker) {
      if (fn.mpi_collective_seconds == 0.0 && fn.mpi_p2p_seconds == 0.0) {
        continue;
      }
      table.add_row({fn.name,
                     util::Table::fmt(fn.mpi_collective_seconds, 2),
                     util::Table::fmt(fn.mpi_p2p_seconds, 2)});
    }
    std::printf("%s", table.render().c_str());
  }

  // Measured counterpart at two scales: worker traffic is almost entirely
  // collective, and doubling the workers leaves per-op byte totals nearly
  // flat (tree reduce carries one vector per rank, not P at the master).
  obs_cli.begin();
  obs::Registry run_metrics;
  for (const int workers : {4, 8}) {
    const hf::TrainOutcome out =
        hf::train_distributed(measured_run_config(workers));
    print_header("Measured collective mix, functional run (" +
                 std::to_string(workers) + " workers)");
    std::printf("%s", per_op_table(out.comm).render().c_str());
    hf::PhaseStats workers_total;
    for (const auto& w : out.worker_phases) workers_total += w;
    print_header("Measured worker phases, summed (" +
                 std::to_string(workers) + " workers)");
    std::printf("%s", phase_table(workers_total).render().c_str());
    run_metrics += run_registry(out);
  }
  obs_cli.finish(run_metrics);
  return 0;
}

int main(int argc, char** argv) {
  return bgqhf::bench::guarded_main([&] { return bench_main(argc, argv); });
}
