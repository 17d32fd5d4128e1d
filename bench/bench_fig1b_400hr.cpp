// Figure 1(b): execution time on the 400-hour training set, scaling to two
// Blue Gene/Q racks.
//
// Paper shapes reproduced: "An additional 22% speedup is obtained when the
// configuration is scaled to 8192-4-16 (two Blue Gene racks). A DNN on 400
// hours can be trained using this configuration in 6.3 hours."
#include <cstdio>

#include "bench_main.h"
#include "figures_common.h"

static int bench_main(int argc, char** argv) {
  using namespace bgqhf;
  using namespace bgqhf::bench;

  const CsvSink csv = CsvSink::from_args(argc, argv);
  const bgq::HfWorkload workload = bgq::HfWorkload::paper_400h_ce();
  print_header("Figure 1(b): 400-hour training data, up to 2 BG/Q racks");
  std::printf("frames=%zu params=%zu (paper: >100M params)\n",
              workload.total_frames(), workload.num_params());

  util::Table table(
      {"config (ranks-rpn-threads)", "racks", "exec time (h)", "speedup"});
  double t4096 = 0.0;
  double first = 0.0;
  for (const ConfigTriple& c : fig1b_configs()) {
    const bgq::RunReport report = run_bgq(workload, c);
    if (first == 0.0) first = report.total_seconds;
    if (c.ranks == 4096) t4096 = report.total_seconds;
    const int racks = (c.ranks / c.ranks_per_node + 1023) / 1024;
    table.add_row({label(c), std::to_string(racks),
                   util::Table::fmt(report.total_hours(), 2),
                   util::Table::fmt(first / report.total_seconds, 2) + "x"});
  }
  std::printf("%s", table.render().c_str());
  csv.save(table, "fig1b_configs");

  const bgq::RunReport two_racks = run_bgq(workload, {8192, 4, 16});
  std::printf(
      "\n8192-4-16 vs 4096-4-16 speedup: %.0f%% (paper: ~22%%)\n"
      "8192-4-16 total: %.1f hours (paper: 6.3 hours)\n",
      100.0 * (t4096 / two_racks.total_seconds - 1.0),
      two_racks.total_hours());
  return 0;
}

int main(int argc, char** argv) {
  return bgqhf::bench::guarded_main([&] { return bench_main(argc, argv); });
}
