// Figure 4: master MPI communication time per function, split into
// collective and point-to-point, for 1024-1-64, 2048-2-32 and 4096-4-16.
//
// Paper shapes reproduced: load_data is point-to-point and grows with
// ranks; sync_weights_master is collective (MPI_Bcast) and grows with
// ranks; the CG loop's bcast/reduce pairs dominate collective volume.
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
    print_header("Figure 4 (" + label(c) + "): master MPI time");
    util::Table table({"function", "collective (s)", "point-to-point (s)"});
    const bgq::RunReport report = run_bgq(workload, c);
    for (const auto& fn : report.master) {
      if (fn.mpi_collective_seconds == 0.0 && fn.mpi_p2p_seconds == 0.0) {
        continue;
      }
      table.add_row({fn.name,
                     util::Table::fmt(fn.mpi_collective_seconds, 2),
                     util::Table::fmt(fn.mpi_p2p_seconds, 2)});
    }
    std::printf("%s", table.render().c_str());
  }

  // Measured counterpart: the collective mix of a really-executed
  // functional HF job, by op type. The reduce row replacing gather is the
  // gather->reduce_sum aggregation migration; weight sync is the bcast row.
  obs_cli.begin();
  const hf::TrainOutcome out = hf::train_distributed(measured_run_config(4));
  print_header("Measured collective mix, functional run (4 workers)");
  std::printf("%s", per_op_table(out.comm).render().c_str());
  print_header("Measured master phases, functional run (4 workers)");
  std::printf("%s", phase_table(out.master_phases).render().c_str());
  obs_cli.finish(run_registry(out));
  return 0;
}

int main(int argc, char** argv) {
  return bgqhf::bench::guarded_main([&] { return bench_main(argc, argv); });
}
