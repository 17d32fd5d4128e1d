// Table I: scaling-up performance — Intel Xeon cluster (96 processes) vs.
// BG/Q (4096 MPI ranks) for the 50-hour task under cross-entropy and
// sequence training criteria.
//
// Paper rows:
//   50-hour Cross-Entropy:  9   h vs 1.3  h  -> 6.9x (12.6x freq-adjusted)
//   50-hour Sequence:      18.7 h vs 4.19 h  -> 4.5x ( 8.2x freq-adjusted)
// Frequency adjustment multiplies by the clock ratio 2.9 GHz / 1.6 GHz.
#include <cstdio>

#include "bench_main.h"
#include "figures_common.h"

static int bench_main(int argc, char** argv) {
  using namespace bgqhf;
  using namespace bgqhf::bench;

  const CsvSink csv = CsvSink::from_args(argc, argv);
  const ObsCli obs_cli = ObsCli::from_args(argc, argv);
  print_header("Table I: scaling up performance (50-hour task)");
  util::Table table({"Training data", "Xeon 96 procs (h)", "BG/Q 4096 (h)",
                     "Speed Up", "Frequency Adjustment"});

  const double freq_ratio = 2.9 / 1.6;
  struct Row {
    const char* name;
    bgq::HfWorkload workload;
  };
  const Row rows[] = {
      {"50-hour Cross-Entropy", bgq::HfWorkload::paper_50h_ce()},
      {"50-hour Sequence", bgq::HfWorkload::paper_50h_sequence()},
  };

  for (const Row& row : rows) {
    const bgq::RunReport xeon =
        bgq::simulate(bgq::xeon_run(row.workload, 96));
    const bgq::RunReport bgq_report = run_bgq(row.workload, {4096, 4, 16});
    const double speedup = xeon.total_seconds / bgq_report.total_seconds;
    table.add_row({row.name, util::Table::fmt(xeon.total_hours(), 1),
                   util::Table::fmt(bgq_report.total_hours(), 2),
                   util::Table::fmt(speedup, 1) + "x",
                   util::Table::fmt(speedup * freq_ratio, 1) + "x"});
  }
  std::printf("%s", table.render().c_str());
  csv.save(table, "table1");
  std::printf(
      "\nPaper reference: CE 9 h vs 1.3 h (6.9x, 12.6x adj); "
      "Sequence 18.7 h vs 4.19 h (4.5x, 8.2x adj)\n");

  // Measured counterpart: really-executed small runs at two worker counts,
  // totals read back from the obs registry behind PhaseStats.
  obs_cli.begin();
  obs::Registry run_metrics;
  print_header("Measured scaling, functional runs");
  util::Table measured({"workers", "total (s)", "phase seconds (registry)"});
  for (const int workers : {2, 4}) {
    const hf::TrainOutcome out =
        hf::train_distributed(measured_run_config(workers));
    measured.add_row({std::to_string(workers),
                      util::Table::fmt(out.seconds, 2),
                      util::Table::fmt(out.master_phases.total_seconds(), 2)});
    run_metrics += run_registry(out);
  }
  std::printf("%s", measured.render().c_str());
  csv.save(measured, "table1_measured");
  obs_cli.finish(run_metrics);
  return 0;
}

int main(int argc, char** argv) {
  return bgqhf::bench::guarded_main([&] { return bench_main(argc, argv); });
}
