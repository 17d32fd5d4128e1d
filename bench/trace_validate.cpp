// Standalone Chrome-trace validator for CI and local use.
//
//   trace_validate trace.json [more.json ...]
//
// Parses each file with the obs JSON validator, shape-checks it as a
// Chrome trace document, and prints what it saw (event count, ranks,
// categories). Exits non-zero on the first invalid file, so a CI step can
// gate on any bench-produced --trace output actually loading in
// about://tracing.
#include <cstdio>
#include <string>

#include "bench_main.h"
#include "obs/export_chrome.h"

static int bench_main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <trace.json> [more.json ...]\n", argv[0]);
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string path = argv[i];
    const bgqhf::obs::ChromeTraceSummary summary =
        bgqhf::obs::validate_chrome_trace_file(path);
    if (!summary.valid) {
      std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                   summary.error.c_str());
      return 1;
    }
    std::string pids;
    for (const auto pid : summary.pids) {
      if (!pids.empty()) pids += ",";
      pids += std::to_string(pid);
    }
    std::string cats;
    for (const auto& c : summary.categories) {
      if (!cats.empty()) cats += ",";
      cats += c;
    }
    std::printf("%s: valid, %zu events, pids [%s], categories [%s]\n",
                path.c_str(), summary.num_events, pids.c_str(), cats.c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  return bgqhf::bench::guarded_main([&] { return bench_main(argc, argv); });
}
