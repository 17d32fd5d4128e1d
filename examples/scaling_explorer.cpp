// Interactive front-end to the BG/Q performance model: predict the wall
// time and per-function profile of a training run for any configuration,
// the way the paper's Figs. 1-5 sweep them.
//
// Usage examples:
//   scaling_explorer                           # 4096-4-16 on 50 h (CE)
//   scaling_explorer ranks=8192 rpn=4 threads=16 task=400h
//   scaling_explorer machine=xeon ranks=96 task=50h criterion=seq
//   scaling_explorer ranks=2048 rpn=2 threads=32 no_load_balance sockets
#include <cstdio>
#include <string>

#include "bgq/perfsim.h"
#include "util/config.h"
#include "util/table.h"

namespace {

int run(int argc, char** argv) {
  using namespace bgqhf;

  const util::Config cfg = util::Config::from_args(argc, argv);

  const std::string task = cfg.get_string("task", "50h");
  const std::string criterion = cfg.get_string("criterion", "ce");
  bgq::HfWorkload workload;
  if (task == "50h") {
    workload = criterion == "seq" ? bgq::HfWorkload::paper_50h_sequence()
                                  : bgq::HfWorkload::paper_50h_ce();
  } else if (task == "400h") {
    workload = bgq::HfWorkload::paper_400h_ce();
    if (criterion == "seq") {
      workload.criterion = bgq::TrainCriterion::kSequence;
      workload.sequence_scalar_flops_per_frame = 6.5e7;
    }
  } else {
    std::fprintf(stderr, "task must be 50h or 400h\n");
    return 1;
  }
  workload.hours = cfg.get_double("hours", workload.hours);

  const std::string machine = cfg.get_string("machine", "bgq");
  bgq::RunConfig run;
  if (machine == "bgq") {
    run = bgq::bgq_run(workload, static_cast<int>(cfg.get_int("ranks", 4096)),
                       static_cast<int>(cfg.get_int("rpn", 4)),
                       static_cast<int>(cfg.get_int("threads", 16)));
  } else if (machine == "xeon") {
    run = bgq::xeon_run(workload,
                        static_cast<int>(cfg.get_int("ranks", 96)));
    (void)cfg.get_int("rpn", 1);
    (void)cfg.get_int("threads", 8);
  } else {
    std::fprintf(stderr, "machine must be bgq or xeon\n");
    return 1;
  }
  run.load_balanced = !cfg.get_bool("no_load_balance", false);
  run.use_mpi_collectives = !cfg.get_bool("sockets", false);
  run.implicit_sync = !cfg.get_bool("no_implicit_sync", false);

  for (const auto& key : cfg.unused_keys()) {
    std::fprintf(stderr, "unknown flag: %s\n", key.c_str());
    return 1;
  }

  const bgq::RunReport report = bgq::simulate(run);

  std::printf(
      "machine=%s config=%s task=%s criterion=%s params=%zu frames=%zu\n"
      "predicted training time: %.2f hours\n\n",
      machine.c_str(), run.config_label().c_str(), task.c_str(),
      criterion.c_str(), workload.num_params(), workload.total_frames(),
      report.total_hours());

  auto print_side = [](const char* title,
                       const std::vector<bgq::FunctionProfile>& fns) {
    std::printf("--- %s ---\n", title);
    util::Table table({"function", "compute (s)", "MPI coll (s)",
                       "MPI p2p (s)", "committed Gcyc", "IU_empty Gcyc"});
    for (const auto& fn : fns) {
      table.add_row({fn.name, util::Table::fmt(fn.compute_seconds, 1),
                     util::Table::fmt(fn.mpi_collective_seconds, 1),
                     util::Table::fmt(fn.mpi_p2p_seconds, 1),
                     util::Table::fmt(fn.cycles.committed / 1e9, 1),
                     util::Table::fmt(fn.cycles.iu_empty / 1e9, 1)});
    }
    std::printf("%s\n", table.render().c_str());
  };
  print_side("master (rank 0)", report.master);
  print_side("average worker", report.worker);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed or unknown BGQHF_* knob ends the run with one line naming
  // it, not an uncaught-exception abort.
  try {
    return run(argc, argv);
  } catch (const bgqhf::util::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
