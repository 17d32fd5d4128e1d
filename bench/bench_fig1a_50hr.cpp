// Figure 1(a): execution time for different ranks-ranks/node-threads
// configurations on the 50-hour training set (1 Blue Gene/Q rack).
//
// Paper shapes reproduced: more OpenMP threads per node improves time; at
// the 64-threads/node operating point, 2048-2-32 is slightly better than
// 4096-4-16, which is better than 1024-1-64.
#include <cstdio>

#include "bench_main.h"
#include "figures_common.h"

static int bench_main(int argc, char** argv) {
  using namespace bgqhf;
  using namespace bgqhf::bench;

  const CsvSink csv = CsvSink::from_args(argc, argv);
  const bgq::HfWorkload workload = bgq::HfWorkload::paper_50h_ce();
  print_header("Figure 1(a): 50-hour training data, 1 BG/Q rack");
  std::printf("frames=%zu params=%zu hf_iters=%d cg/iter=%d\n",
              workload.total_frames(), workload.num_params(),
              workload.hf_iterations, workload.cg_iterations_per_hf);

  util::Table table({"config (ranks-rpn-threads)", "threads/node",
                     "exec time (h)", "vs 1024-1-8"});
  double baseline = 0.0;
  for (const ConfigTriple& c : fig1a_configs()) {
    const bgq::RunReport report = run_bgq(workload, c);
    if (baseline == 0.0) baseline = report.total_seconds;
    table.add_row({label(c),
                   std::to_string(c.ranks_per_node * c.threads_per_rank),
                   util::Table::fmt(report.total_hours(), 2),
                   util::Table::fmt(baseline / report.total_seconds, 2) +
                       "x"});
  }
  std::printf("%s", table.render().c_str());
  csv.save(table, "fig1a_configs");

  // Scaling study behind the "linear up to 4096 processes" claim: fixed
  // 4 ranks/node, 16 threads, growing partition.
  print_header("Scaling at 4 ranks/node (50-hour)");
  util::Table scaling({"ranks", "exec time (h)", "speedup vs 512",
                       "parallel efficiency"});
  double t512 = 0.0;
  for (const int ranks : {512, 1024, 2048, 4096, 8192}) {
    const bgq::RunReport report = run_bgq(workload, {ranks, 4, 16});
    if (t512 == 0.0) t512 = report.total_seconds;
    const double speedup = t512 / report.total_seconds;
    const double ideal = ranks / 512.0;
    scaling.add_row({std::to_string(ranks),
                     util::Table::fmt(report.total_hours(), 2),
                     util::Table::fmt(speedup, 2) + "x",
                     util::Table::fmt(100.0 * speedup / ideal, 0) + "%"});
  }
  std::printf("%s", scaling.render().c_str());
  csv.save(scaling, "fig1a_scaling");
  return 0;
}

int main(int argc, char** argv) {
  return bgqhf::bench::guarded_main([&] { return bench_main(argc, argv); });
}
