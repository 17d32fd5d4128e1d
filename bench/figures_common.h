// Shared helpers for the figure/table reproduction benches.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bgq/perfsim.h"
#include "hf/trainer.h"
#include "obs/export_chrome.h"
#include "obs/export_table.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "simmpi/stats.h"
#include "util/config.h"
#include "util/table.h"

namespace bgqhf::bench {

struct ConfigTriple {
  int ranks;
  int ranks_per_node;
  int threads_per_rank;
};

/// The Fig. 1(a) configuration sweep: "one must use at least 16 threads to
/// utilize all cores ... we target 64 threads per node", then the three
/// rank/thread decompositions of 64 threads/node on one rack.
inline std::vector<ConfigTriple> fig1a_configs() {
  return {
      {1024, 1, 8},  {1024, 1, 16}, {1024, 1, 32},
      {1024, 1, 64}, {2048, 2, 32}, {4096, 4, 16},
  };
}

/// Fig. 1(b): the 400-hour set on one and two racks.
inline std::vector<ConfigTriple> fig1b_configs() {
  return {
      {1024, 1, 64}, {2048, 2, 32}, {4096, 4, 16}, {8192, 4, 16},
  };
}

/// The three decompositions Figs. 2-5 chart.
inline std::vector<ConfigTriple> breakdown_configs() {
  return {
      {1024, 1, 64}, {2048, 2, 32}, {4096, 4, 16},
  };
}

inline bgq::RunReport run_bgq(const bgq::HfWorkload& workload,
                              const ConfigTriple& c) {
  return bgq::simulate(
      bgq::bgq_run(workload, c.ranks, c.ranks_per_node, c.threads_per_rank));
}

inline std::string label(const ConfigTriple& c) {
  return std::to_string(c.ranks) + "-" + std::to_string(c.ranks_per_node) +
         "-" + std::to_string(c.threads_per_rank);
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// The small really-executed functional HF job every figure bench's
/// "measured" section runs (one shared shape, so the sections compare).
inline hf::TrainerConfig measured_run_config(int workers) {
  hf::TrainerConfig cfg;
  cfg.workers = workers;
  cfg.corpus.hours = 0.02;
  cfg.corpus.feature_dim = 12;
  cfg.corpus.num_states = 5;
  cfg.corpus.mean_utt_seconds = 1.5;
  cfg.corpus.seed = 7;
  cfg.context = 2;
  cfg.hidden = {24};
  cfg.hf.max_iterations = 2;
  cfg.hf.hyper.cg_max_iters = 10;
  return cfg;
}

/// Measured per-phase wall time, sourced from the obs registry behind
/// PhaseStats — rows carry the same labels the model tables chart.
inline util::Table phase_table(const hf::PhaseStats& stats) {
  util::Table table({"phase", "seconds", "calls"});
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(hf::Phase::kCount); ++i) {
    const auto phase = static_cast<hf::Phase>(i);
    if (stats.calls(phase) == 0) continue;
    table.add_row({hf::phase_label(phase),
                   util::Table::fmt(stats.seconds(phase), 3),
                   std::to_string(stats.calls(phase))});
  }
  return table;
}

/// All of a run's registry-backed metrics (comm + master + worker phases)
/// merged into one bundle for --metrics-json dumps.
inline obs::Registry run_registry(const hf::TrainOutcome& out) {
  obs::Registry all = out.comm.registry();
  all += out.master_phases.registry();
  for (const auto& w : out.worker_phases) all += w.registry();
  return all;
}

/// The measured per-collective breakdown (calls, bytes, blocked wall time
/// by op type) of a really-executed functional run — the small-scale
/// measured counterpart of the analytic "collective" column in Figs. 4/5.
inline util::Table per_op_table(const simmpi::CommStats& comm) {
  // "wire MB" diverges from the logical "MB" only when compression is on
  // (BGQHF_COMPRESS): it is what actually crossed the links.
  util::Table table({"collective", "calls", "MB", "wire MB", "blocked (s)"});
  for (std::size_t i = 0; i < simmpi::kNumCollOps; ++i) {
    const auto op = static_cast<simmpi::CollOp>(i);
    const simmpi::OpStats s = comm.op(op);
    if (s.calls == 0) continue;
    table.add_row({simmpi::to_string(op), std::to_string(s.calls),
                   util::Table::fmt(s.bytes / 1048576.0, 2),
                   util::Table::fmt(s.wire_bytes / 1048576.0, 2),
                   util::Table::fmt(s.seconds, 3)});
  }
  return table;
}

/// Optional CSV output: pass `csv=<dir>` on a bench's command line and
/// every table it prints is also written to <dir>/<name>.csv for plotting.
struct CsvSink {
  std::string dir;

  static CsvSink from_args(int argc, char** argv) {
    CsvSink sink;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("csv=", 0) == 0) sink.dir = arg.substr(4);
    }
    return sink;
  }

  void save(const util::Table& table, const std::string& name) const {
    if (dir.empty()) return;
    const std::string path = dir + "/" + name + ".csv";
    table.write_csv(path);
    std::printf("[csv written: %s]\n", path.c_str());
  }
};

/// Observability flags shared by the benches that really execute runs:
///
///   --trace <path>         record spans during the measured runs and write
///                          the merged all-ranks Chrome trace to <path>
///   --metrics-json <path>  dump the obs registry (global accumulation plus
///                          the run's phase/comm stats) as JSON to <path>
///
/// `--flag=value` also works. Call begin() before the measured runs and
/// finish() after them.
struct ObsCli {
  std::string trace_path;
  std::string metrics_path;

  static ObsCli from_args(int argc, char** argv) {
    ObsCli cli;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto take = [&](const char* flag, std::string& out) {
        const std::string eq = std::string(flag) + "=";
        if (arg == flag && i + 1 < argc) {
          out = argv[++i];
          return true;
        }
        if (arg.rfind(eq, 0) == 0) {
          out = arg.substr(eq.size());
          return true;
        }
        return false;
      };
      if (take("--trace", cli.trace_path)) continue;
      take("--metrics-json", cli.metrics_path);
    }
    // BGQHF_TRACE_FILE supplies a default output path when no --trace flag
    // is given (e.g. under a CI env-only run).
    if (cli.trace_path.empty()) {
      cli.trace_path = util::RuntimeEnv::get().trace_file;
    }
    return cli;
  }

  /// Arm tracing (when --trace was given) and drop any events/metrics from
  /// warmup so the outputs cover only the measured runs.
  void begin() const {
    if (!trace_path.empty()) obs::set_tracing(true);
    obs::clear_trace();
    obs::clear_global();
  }

  /// Write the requested outputs; `run_metrics` carries the run's
  /// phase/comm registries (merged into the global-accumulation dump).
  void finish(const obs::Registry& run_metrics) const {
    if (!trace_path.empty()) {
      obs::write_chrome_trace(trace_path, obs::collect_trace());
      std::printf("[trace written: %s]\n", trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      obs::Registry all = obs::collect_global();
      all += run_metrics;
      obs::write_metrics_json(metrics_path, all);
      std::printf("[metrics written: %s]\n", metrics_path.c_str());
    }
  }
};

}  // namespace bgqhf::bench
