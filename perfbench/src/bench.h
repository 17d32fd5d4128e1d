// Shared pieces of the repository benchmark: arguments, the result record,
// order statistics, the in-memory span log, and the clock that timestamps
// the optimizer's per-iteration log lines.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;    // scratch space inside the checkout
  std::string trace_out;  // where the traced run writes its spans
  std::string reference;  // first-run fingerprint file for this code + seed
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One run's outcome: the benchmark's final JSON line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Context lines printed before the JSON (sample counts, environment).
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a failed output check: the run stays printable but is marked
  /// incorrect, and the reason goes to stderr.
  void fail_check(const std::string& what);
};

double now_s();  // steady clock, seconds
double mean(const std::vector<double>& v);
double median(std::vector<double> v);  // mean of the middle two if even
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double peak_rss_mb();
bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b);

/// Deterministic outputs must repeat exactly across runs of the same code
/// and seed: the first run writes `fingerprint` to `path`, later runs must
/// match it. Returns false (and fails the check) on a mismatch. An empty
/// path skips the check.
bool check_reference(const std::string& path, const std::string& fingerprint,
                     Result& res);

/// Timestamps the optimizer's "hf iter <n>" log lines as they are written.
/// HfOptions::verbose makes the master log one such line at the end of each
/// completed iteration; redirecting stderr through a pipe read by a thread
/// gives each iteration's end time without touching the program. Lines that
/// are not iteration marks are forwarded to the real stderr.
class IterationClock {
 public:
  IterationClock();
  ~IterationClock();
  IterationClock(const IterationClock&) = delete;
  IterationClock& operator=(const IterationClock&) = delete;

  /// Restore stderr and wait for the reader; marks() is final afterwards.
  void stop();
  /// (iteration number, now_s() when its line arrived), in arrival order.
  const std::vector<std::pair<std::size_t, double>>& marks() const {
    return marks_;
  }

 private:
  void read_loop(int fd, int forward_fd);

  int saved_stderr_ = -1;
  std::thread reader_;
  std::vector<std::pair<std::size_t, double>> marks_;
};

/// A timed call into one layer, recorded from the benchmark's side.
struct Span {
  const char* name = "";
  double start = 0.0;  // now_s()
  double end = 0.0;
  int parent = 0;      // outer-iteration id; 0 = outside any iteration
};

/// Write spans as Chrome trace events (ts/dur in microseconds, the parent
/// iteration as an arg).
void write_spans(const std::string& path, const std::vector<Span>& spans);

// Workload entry points; each fills `out` and returns.
void run_training(const Args& args, Result& out);
void run_serving(const Args& args, Result& out);

}  // namespace perfbench
