#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>

#include "bench.h"
#include "util/logging.h"

namespace perfbench {

void Result::fail_check(const std::string& what) {
  correct = false;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool check_reference(const std::string& path, const std::string& fingerprint,
                     Result& res) {
  if (path.empty()) return true;
  std::ifstream in(path);
  if (in) {
    const std::string first((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    if (first == fingerprint) return true;
    res.fail_check("outputs differ from the first run of this code and seed");
    return false;
  }
  const std::string tmp = path + ".tmp" + std::to_string(getpid());
  {
    std::ofstream out(tmp);
    out << fingerprint;
  }
  std::rename(tmp.c_str(), path.c_str());
  return true;
}

IterationClock::IterationClock() {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("IterationClock: pipe");
  std::fflush(stderr);
  saved_stderr_ = dup(STDERR_FILENO);
  dup2(fds[1], STDERR_FILENO);
  close(fds[1]);
  bgqhf::util::set_log_level(bgqhf::util::LogLevel::kInfo);
  reader_ = std::thread([this, fd = fds[0]] { read_loop(fd, saved_stderr_); });
}

IterationClock::~IterationClock() { stop(); }

void IterationClock::stop() {
  if (saved_stderr_ < 0) return;
  bgqhf::util::set_log_level(bgqhf::util::LogLevel::kWarn);
  std::fflush(stderr);
  dup2(saved_stderr_, STDERR_FILENO);  // drops the last write end: EOF
  reader_.join();
  close(saved_stderr_);
  saved_stderr_ = -1;
}

void IterationClock::read_loop(int fd, int forward_fd) {
  static constexpr char kMark[] = "hf iter ";
  std::string pending;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fd, buf, sizeof buf)) > 0) {
    const double t = now_s();
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t eol = 0;
    while ((eol = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, eol + 1);
      pending.erase(0, eol + 1);
      const std::size_t at = line.find(kMark);
      if (at != std::string::npos) {
        marks_.emplace_back(
            std::strtoull(line.c_str() + at + sizeof kMark - 1, nullptr, 10),
            t);
      } else if (write(forward_fd, line.data(), line.size()) < 0) {
        break;
      }
    }
  }
  close(fd);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty() || spans.empty()) return;
  std::ofstream os(path);
  const double t0 = spans.front().start;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"iteration\":%d}}",
                  i == 0 ? "" : ",", s.name, (s.start - t0) * 1e6,
                  (s.end - s.start) * 1e6, s.parent);
    os << line;
  }
  os << "\n]}\n";
}

}  // namespace perfbench
