#include "serve/loadgen.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "serve/error.h"
#include "util/rng.h"
#include "util/timer.h"

namespace bgqhf::serve {

std::vector<TimedRequest> generate_trace(const LoadGenOptions& options,
                                         std::size_t input_dim) {
  if (options.min_frames == 0 || options.max_frames < options.min_frames) {
    throw std::invalid_argument("generate_trace: bad frame range");
  }
  util::Rng arrivals(options.seed);
  util::Rng content = arrivals.fork(1);
  std::vector<TimedRequest> trace;
  trace.reserve(options.num_requests);
  double t = 0.0;
  for (std::size_t i = 0; i < options.num_requests; ++i) {
    TimedRequest r;
    if (options.rate_rps > 0.0) {
      // Poisson arrivals: exponential inter-arrival times.
      const double u = std::max(arrivals.next_double(), 1e-12);
      t += -std::log(u) / options.rate_rps;
    }
    r.arrival_s = t;
    const std::size_t frames =
        options.min_frames +
        static_cast<std::size_t>(content.below(
            options.max_frames - options.min_frames + 1));
    r.features = blas::Matrix<float>(frames, input_dim);
    for (std::size_t f = 0; f < frames; ++f) {
      for (std::size_t d = 0; d < input_dim; ++d) {
        r.features(f, d) = static_cast<float>(content.uniform(-1.0, 1.0));
      }
    }
    trace.push_back(std::move(r));
  }
  return trace;
}

LoadGenReport replay_trace(Engine& engine, std::vector<TimedRequest> trace,
                           std::uint64_t deadline_us) {
  LoadGenReport report;
  std::vector<std::future<Response>> futures;
  futures.reserve(trace.size());

  const Clock::time_point start = Clock::now();
  for (TimedRequest& r : trace) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(r.arrival_s));
    // Open loop: hold to the schedule even if the engine is behind.
    std::this_thread::sleep_until(due);
    try {
      futures.push_back(engine.submit(
          std::move(r.features), std::chrono::microseconds(deadline_us)));
      ++report.submitted;
    } catch (const Overloaded&) {
      ++report.rejected_overloaded;
    }
  }

  std::vector<double> latencies;
  latencies.reserve(futures.size());
  std::size_t frames_completed = 0;
  for (auto& fut : futures) {
    try {
      const Response resp = fut.get();
      ++report.completed;
      frames_completed += resp.logits.rows();
      latencies.push_back(resp.total_us);
    } catch (const DeadlineExceeded&) {
      ++report.rejected_deadline;
    } catch (...) {
      ++report.failed;
    }
  }
  report.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (report.seconds > 0.0) {
    report.requests_per_s = report.completed / report.seconds;
    report.frames_per_s = frames_completed / report.seconds;
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    double sum = 0.0;
    for (const double v : latencies) sum += v;
    report.latency_mean_us = sum / latencies.size();
    const auto at = [&](double q) {
      const std::size_t idx = std::min(
          latencies.size() - 1,
          static_cast<std::size_t>(q * (latencies.size() - 1) + 0.5));
      return latencies[idx];
    };
    report.latency_p50_us = at(0.50);
    report.latency_p99_us = at(0.99);
  }
  return report;
}

LoadGenReport run_load(Engine& engine, const LoadGenOptions& options) {
  return replay_trace(engine, generate_trace(options, engine.input_dim()),
                      options.deadline_us);
}

}  // namespace bgqhf::serve
