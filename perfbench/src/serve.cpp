// serve_utts: the ce_long_utts topology (360-512-512-64) behind
// serve::Engine with 2 scoring threads and the dynamic batcher, driven by
// the benchmark's own single-thread open loop at a fixed Poisson rate.
//
// Requests (20-200 frames of 360 features), their labels and the arrival
// schedule come from a std::mt19937_64 seeded by --seed. Each request is
// timed from when it was due: latency = (submit - due) + the engine's
// enqueue-to-reply time. Every response is compared bitwise with a
// single-request ModelRuntime::score of the same features.
#include <algorithm>
#include <bit>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "bench.h"
#include "hf/checkpoint.h"
#include "micro.h"
#include "nn/loss.h"
#include "obs/registry.h"
#include "serve/engine.h"
#include "serve/error.h"
#include "serve/model_runtime.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace serve = bgqhf::serve;
using bgqhf::blas::Matrix;

constexpr std::size_t kInputDim = 360;
constexpr std::size_t kStates = 64;
constexpr double kRate = 200.0;          // requests per second, open loop
constexpr double kWindowS = 5.0;  // latency percentiles per window of due time
constexpr double kSpinS = 0.001;  // generator spins this long before a due time
constexpr double kLatencyLimitS = 0.05;  // goodput counts replies within this
constexpr std::size_t kPool = 64;        // distinct request bodies
constexpr std::size_t kBurst = 500;      // requests per capacity burst
constexpr int kBursts = 4;
constexpr std::size_t kBurstWindow = 128;  // outstanding during a burst
constexpr int kSetups = 7;

bgqhf::nn::Network topology() {
  return bgqhf::nn::Network::mlp(kInputDim, {512, 512}, kStates);
}

serve::ServeOptions serve_options() {
  serve::ServeOptions o;
  o.max_batch_frames = kServeBatchFrames;
  o.batch_timeout_us = 1000;
  o.queue_capacity = 1024;
  o.threads = 2;
  return o;
}

struct Body {
  Matrix<float> x;
  std::vector<int> labels;
  Matrix<float> reference;  // single-request score
};

struct Outcome {
  double due = 0.0;
  double late = 0.0;     // submit - due
  double latency = 0.0;  // due -> reply
  double service = 0.0;  // engine time minus queue wait
  double queue_wait = 0.0;
  std::size_t frames = 0;
  bool ok = false;
};

/// Scores one response: bitwise parity with the reference and its CE.
bool check_response(const serve::Response& r, const Body& b, double& ce) {
  if (r.logits.rows() != b.reference.rows() ||
      r.logits.cols() != b.reference.cols() ||
      std::memcmp(r.logits.data(), b.reference.data(),
                  b.reference.size() * sizeof(float)) != 0) {
    return false;
  }
  ce += bgqhf::nn::softmax_xent(r.logits.view(), b.labels).loss_sum;
  return true;
}

/// Open-loop generator: submits on schedule from the calling thread while a
/// collector thread takes replies in submission order.
class OpenLoop {
 public:
  OpenLoop(serve::Engine& engine, const std::vector<Body>& pool)
      : engine_(engine), pool_(pool), collector_([this] { collect(); }) {}
  ~OpenLoop() { finish(); }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Submit pool[body] at absolute time `due`: sleep until shortly before
  /// it, then spin, so wake-up jitter does not make the generator late.
  void submit_at(double due, std::size_t body, std::vector<Span>* spans) {
    const auto wake = std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(due - kSpinS)));
    std::this_thread::sleep_until(wake);
    while (now_s() < due) {
    }
    const double t0 = now_s();
    Pending p{{}, due, t0, body};
    try {
      p.reply = engine_.submit(pool_[body].x);
    } catch (const serve::ServeError&) {
      // Rejected: the outcome records a failed request.
    }
    if (spans != nullptr) spans->push_back(Span{"submit", t0, now_s(), 0});
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(p));
    ++submitted_;
    cv_.notify_one();
  }

  /// Wait until at most `n` submitted requests are unanswered.
  void wait_outstanding(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return submitted_ - results_.size() <= n; });
  }

  /// Join the collector; returns outcomes in submission order.
  std::vector<Outcome> finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (done_) return results_;
      done_ = true;
      cv_.notify_all();
    }
    collector_.join();
    return results_;
  }
  double heldout_ce_sum() const { return ce_sum_; }

 private:
  struct Pending {
    std::future<serve::Response> reply;
    double due = 0.0;
    double submitted = 0.0;
    std::size_t body = 0;
  };

  void collect() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      Outcome o;
      o.due = p.due;
      o.late = p.submitted - p.due;
      o.frames = pool_[p.body].x.rows();
      if (p.reply.valid()) {
        try {
          const serve::Response r = p.reply.get();
          o.latency = o.late + r.total_us * 1e-6;
          o.service = (r.total_us - r.queue_wait_us) * 1e-6;
          o.queue_wait = r.queue_wait_us * 1e-6;
          o.ok = check_response(r, pool_[p.body], ce_sum_);
        } catch (const std::exception&) {
          o.ok = false;
        }
      }
      std::lock_guard<std::mutex> lock(mu_);
      results_.push_back(o);
      cv_.notify_all();
    }
  }

  serve::Engine& engine_;
  const std::vector<Body>& pool_;
  std::mutex mu_;  // guards queue_, results_, submitted_, done_
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::vector<Outcome> results_;
  std::size_t submitted_ = 0;
  bool done_ = false;
  double ce_sum_ = 0.0;  // collector thread only until finish()
  std::thread collector_;
};

std::vector<Body> make_pool(std::mt19937_64& rng,
                            const serve::ModelRuntime& model) {
  std::uniform_int_distribution<int> label(0, kStates - 1);
  std::normal_distribution<float> feat(0.0f, 1.0f);
  std::vector<Body> pool(kPool);
  for (std::size_t j = 0; j < kPool; ++j) {
    // Lengths evenly cover 20..200 frames, so every seed offers the same
    // work; the seed draws the features, labels and request order.
    Body& b = pool[j];
    const std::size_t n = 20 + (j * 180 + (kPool - 1) / 2) / (kPool - 1);
    b.x = Matrix<float>(n, kInputDim);
    for (std::size_t i = 0; i < b.x.size(); ++i) b.x.data()[i] = feat(rng);
    b.labels.resize(n);
    for (int& l : b.labels) l = label(rng);
    b.reference = model.score(b.x.view());
  }
  return pool;
}

}  // namespace

void run_serving(const Args& args, Result& res) {
  std::mt19937_64 rng(args.seed);

  // Staging (not timed): a Glorot-initialized model saved as a checkpoint.
  const std::string ckpt_path = args.workdir + "/model.ckpt";
  {
    bgqhf::nn::Network net = topology();
    bgqhf::util::Rng init(rng());
    net.init_glorot(init);
    bgqhf::hf::TrainerCheckpoint ckpt;
    ckpt.hf_seed = args.seed;
    ckpt.theta.assign(net.params().begin(), net.params().end());
    ckpt.d0.assign(ckpt.theta.size(), 0.0f);
    bgqhf::hf::save_checkpoint(ckpt, ckpt_path);
  }

  // setup_s: checkpoint load + engine start, until submit() can admit.
  std::vector<double> setup;
  std::unique_ptr<serve::Engine> engine;
  std::shared_ptr<const serve::ModelRuntime> model;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    const double t0 = now_s();
    model = serve::ModelRuntime::from_checkpoint(ckpt_path, topology());
    engine = std::make_unique<serve::Engine>(model, serve_options());
    setup.push_back(now_s() - t0);
  }

  const std::vector<Body> pool = make_pool(rng, *model);
  const std::size_t n = static_cast<std::size_t>(kRate * args.seconds);
  // Paced arrivals: request i is due at (i + u_i) / kRate with u_i uniform
  // in [0, 1) from the seed. The offered rate is exact for every seed and
  // bursts stay short, so the tail measures the engine, not the draw.
  std::uniform_real_distribution<double> jitter(0.0, 1.0);
  std::vector<std::size_t> order(kPool);
  for (std::size_t j = 0; j < kPool; ++j) order[j] = j;
  std::vector<double> arrival(n);
  std::vector<std::size_t> body(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % kPool == 0) std::shuffle(order.begin(), order.end(), rng);
    arrival[i] = (static_cast<double>(i) + jitter(rng)) / kRate;
    body[i] = order[i % kPool];
  }

  bgqhf::obs::clear_global();
  std::vector<Span> spans;
  std::vector<Outcome> outcomes;
  double ce_sum = 0.0;
  {
    OpenLoop loop(*engine, pool);
    const double base = now_s() + 0.05;
    for (std::size_t i = 0; i < n; ++i) {
      loop.submit_at(base + arrival[i], body[i], args.trace ? &spans : nullptr);
    }
    outcomes = loop.finish();
    ce_sum = loop.heldout_ce_sum();
  }
  const bgqhf::obs::Registry global = bgqhf::obs::collect_global();

  // Capacity: bursts of kBurst requests with kBurstWindow outstanding.
  std::vector<double> burst_s;
  std::size_t burst_ok = 0;
  for (int b = 0; b < kBursts; ++b) {
    OpenLoop loop(*engine, pool);
    const double t0 = now_s();
    for (std::size_t i = 0; i < kBurst; ++i) {
      loop.wait_outstanding(kBurstWindow - 1);
      loop.submit_at(0.0, body[i % n], nullptr);
    }
    const std::vector<Outcome> got = loop.finish();
    burst_s.push_back(now_s() - t0);
    for (const Outcome& o : got) burst_ok += o.ok ? 1 : 0;
  }
  engine->stop();

  // Latency percentiles are taken per kWindowS window of due times and the
  // median window is reported: one episode of host noise then moves one
  // window, not the figure. A failed request counts as infinitely late.
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(args.seconds / kWindowS)));
  std::vector<std::vector<double>> by_window(windows);
  std::vector<double> late, service, queue_wait;
  std::size_t ok = 0, good_frames = 0, ce_frames = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    late.push_back(o.late);
    by_window[std::min(windows - 1,
                       static_cast<std::size_t>(arrival[i] / kWindowS))]
        .push_back(o.ok ? o.latency : std::numeric_limits<double>::infinity());
    if (!o.ok) continue;
    ++ok;
    ce_frames += o.frames;
    service.push_back(o.service);
    queue_wait.push_back(o.queue_wait);
    if (o.latency <= kLatencyLimitS) good_frames += o.frames;
  }
  std::vector<double> p50s, p99s;
  std::string per_window = "window p50/p99 ms:";
  for (const auto& w : by_window) {
    p50s.push_back(quantile(w, 0.5));
    p99s.push_back(quantile(w, 0.99));
    per_window += " " + std::to_string(p50s.back() * 1e3) + "/" +
                  std::to_string(p99s.back() * 1e3);
  }
  res.notes.push_back(per_window);
  res.attempted = n + kBursts * kBurst;
  res.failed = res.attempted - ok - burst_ok;
  if (res.failed > 0) {
    res.fail_check(std::to_string(res.failed) +
                   " requests rejected, failed or differing from "
                   "single-request scoring");
  }
  const double heldout_ce =
      ce_frames == 0 ? 0.0 : ce_sum / static_cast<double>(ce_frames);
  check_reference(args.reference,
                  "heldout_ce " +
                      std::to_string(std::bit_cast<std::uint64_t>(heldout_ce)) +
                      "\n",
                  res);
  res.notes.push_back("samples: requests=" + std::to_string(n) +
                      " windows=" + std::to_string(windows) +
                      " rate_rps=" + std::to_string(kRate) +
                      " bursts=" + std::to_string(kBursts) + "x" +
                      std::to_string(kBurst) +
                      " setups=" + std::to_string(kSetups));

  if (!args.trace) {
    res.set("setup_s", median(setup), "s");
    res.set("latency_ms", median(p50s) * 1e3, "ms");
    // Each burst is the same work; host interference only adds time.
    res.set("time_to_target_s",
            *std::min_element(burst_s.begin(), burst_s.end()), "s");
    res.set("heldout_ce", heldout_ce, "nats");
    res.set("ok_frac",
            static_cast<double>(res.attempted - res.failed) /
                static_cast<double>(res.attempted),
            "ratio");
    res.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  auto& schema = bgqhf::obs::Schema::global();
  const auto batches = global.histogram(schema.histogram("serve.batch_frames"));
  const auto gemm = global.histogram(schema.histogram("blas.gemm.seconds"));
  const double gemm_flops =
      static_cast<double>(global.counter(schema.counter("blas.gemm.flops")));
  res.set("serve.p99_ms", median(p99s) * 1e3, "ms");
  res.set("serve.goodput_fps", static_cast<double>(good_frames) / args.seconds,
          "frames/s");
  res.set("serve.service_ms", median(service) * 1e3, "ms");
  res.set("serve.queue_wait_ms", quantile(queue_wait, 0.99) * 1e3, "ms");
  res.set("serve.late_ms", quantile(late, 0.99) * 1e3, "ms");
  res.set("serve.mean_batch_frames",
          batches.count == 0 ? 0.0 : batches.sum / batches.count, "frames");
  res.set("serve.batches", static_cast<double>(batches.count), "count");
  res.set("serve.rejects",
          static_cast<double>(
              global.counter(schema.counter("serve.rejects.overloaded")) +
              global.counter(schema.counter("serve.rejects.deadline"))),
          "count");
  res.set("blas.gemm_calls", static_cast<double>(gemm.count), "count");
  res.set("blas.gemm_s", gemm.sum, "s");
  res.set("blas.gemm_gflops", gemm.sum > 0.0 ? gemm_flops / gemm.sum / 1e9 : 0.0,
          "GFLOP/s");

  // nn micro-calls at serving shapes: one engine batch of request bodies,
  // and the mid-length (~110-frame) request.
  std::vector<float> xs;
  std::vector<int> labels;
  for (const Body& b : pool) {
    xs.insert(xs.end(), b.x.data(), b.x.data() + b.x.size());
    labels.insert(labels.end(), b.labels.begin(), b.labels.end());
  }
  MicroShape shape;
  shape.x = bgqhf::blas::ConstMatrixView<float>(xs.data(), labels.size(),
                                                kInputDim, kInputDim);
  shape.labels = labels;
  shape.batch_frames = kServeBatchFrames;
  shape.utterance = pool[kPool / 2].x.view();
  set_micro_metrics(time_micro_calls(model->network(), shape), res);
  set_idle_training_metrics(res);
  write_spans(args.trace_out, spans);
}

}  // namespace perfbench
