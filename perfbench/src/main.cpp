// perfbench: the repository benchmark binary. perfbench/run.py builds it and
// runs one workload per invocation:
//
//   perfbench --workload <ce_long_utts|cg_short_utts|serve_utts> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//             [--trace-out <file>] [--reference <file>]
//
// The last line of stdout is the JSON result; lines before it are context.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "blas/dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

using perfbench::Args;
using perfbench::Result;

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--workdir") a.workdir = val;
    else if (key == "--trace-out") a.trace_out = val;
    else if (key == "--reference") a.reference = val;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workdir.empty()) throw std::invalid_argument("--workdir is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// RuntimeEnv reads BGQHF_* knobs (precision, compression, HF
// hyperparameters, serving policy) silently; any of them would change what
// is measured, so the benchmark refuses to run with one set.
void require_pinned_env() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "BGQHF_", 6) == 0) {
      throw std::runtime_error(std::string("environment must not set ") +
                               *e);
    }
  }
}

void print_json(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    require_pinned_env();
    Result result;
    result.notes.push_back(
        std::string("env: gemm_kernel=") +
        bgqhf::blas::to_string(bgqhf::blas::active_kernels().kind) +
        " build_type=" PERFBENCH_BUILD_TYPE +
        " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
        " workload=" + args.workload + " seed=" + std::to_string(args.seed) +
        " trace=" + (args.trace ? "1" : "0"));
    if (args.workload == "ce_long_utts" || args.workload == "cg_short_utts") {
      perfbench::run_training(args, result);
    } else if (args.workload == "serve_utts") {
      perfbench::run_serving(args, result);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    for (auto& [name, m] : result.metrics) {
      if (!std::isfinite(m.value)) {
        result.fail_check("metric " + name + " is not finite");
        m.value = 0.0;
      }
    }
    for (const auto& n : result.notes) std::printf("# %s\n", n.c_str());
    print_json(result);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
