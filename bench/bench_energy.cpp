// Energy-efficiency comparison (Discussion, Sec. VII/VIII).
//
// "From a financial perspective, Blue Gene/Q is also a leader in energy
// efficiency compared to the 30 different systems studied [Green500]."
// This bench turns the Table-I runs into energy numbers using the nodes'
// power draw: BG/Q wins on energy-to-solution even more than on
// time-to-solution.
#include <cstdio>

#include "bench_main.h"
#include "figures_common.h"

static int bench_main() {
  using namespace bgqhf;
  using namespace bgqhf::bench;

  print_header("Energy to train (50-hour task)");
  util::Table table({"criterion", "machine", "nodes", "time (h)",
                     "energy (kWh)", "GF/W (peak)"});

  struct Row {
    const char* name;
    bgq::HfWorkload workload;
  };
  const Row rows[] = {
      {"Cross-Entropy", bgq::HfWorkload::paper_50h_ce()},
      {"Sequence", bgq::HfWorkload::paper_50h_sequence()},
  };

  for (const Row& row : rows) {
    const bgq::MachineSpec bgq_machine = bgq::bgq_racks(1);
    const bgq::MachineSpec xeon_machine = bgq::intel_cluster(96);
    const bgq::RunReport bgq_report =
        bgq::simulate(bgq::bgq_run(row.workload, 4096, 4, 16));
    const bgq::RunReport xeon_report =
        bgq::simulate(bgq::xeon_run(row.workload, 96));

    const double bgq_gfw = bgq_machine.node.node_peak_flops() / 1e9 /
                           bgq_machine.node.watts;
    const double xeon_gfw = xeon_machine.node.node_peak_flops() / 1e9 /
                            xeon_machine.node.watts;

    table.add_row({row.name, "BG/Q 4096-4-16",
                   std::to_string(bgq_report.nodes_used),
                   util::Table::fmt(bgq_report.total_hours(), 2),
                   util::Table::fmt(bgq_report.energy_kwh, 0),
                   util::Table::fmt(bgq_gfw, 2)});
    table.add_row({row.name, "Xeon 96 procs",
                   std::to_string(xeon_report.nodes_used),
                   util::Table::fmt(xeon_report.total_hours(), 2),
                   util::Table::fmt(xeon_report.energy_kwh, 0),
                   util::Table::fmt(xeon_gfw, 2)});
  }
  std::printf("%s", table.render().c_str());

  const bgq::RunReport b =
      bgq::simulate(bgq::bgq_run(bgq::HfWorkload::paper_50h_ce(), 4096, 4,
                                 16));
  const bgq::RunReport x =
      bgq::simulate(bgq::xeon_run(bgq::HfWorkload::paper_50h_ce(), 96));
  std::printf(
      "\nEnergy-to-solution advantage (CE): %.1fx in BG/Q's favor\n",
      x.energy_kwh / b.energy_kwh);
  return 0;
}

int main() { return bgqhf::bench::guarded_main(bench_main); }
