#include "serve/engine.h"

#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/registry.h"
#include "obs/span.h"
#include "serve/error.h"
#include "util/timer.h"

namespace bgqhf::serve {

namespace {

struct EngineMetrics {
  obs::CounterId requests;
  obs::CounterId responses;
  obs::CounterId rejects_overloaded;
  obs::CounterId swaps;
  obs::GaugeId model_version;
  obs::HistogramId score_us;
  obs::HistogramId latency_us;
};

const EngineMetrics& engine_metrics() {
  static const EngineMetrics m = [] {
    obs::Schema& s = obs::Schema::global();
    return EngineMetrics{
        s.counter("serve.requests"),
        s.counter("serve.responses"),
        s.counter("serve.rejects.overloaded"),
        s.counter("serve.swaps"),
        s.gauge("serve.model_version"),
        s.histogram("serve.score_us"),
        s.histogram("serve.latency_us"),
    };
  }();
  return m;
}

double us_since(Clock::time_point start, Clock::time_point now) {
  return std::chrono::duration<double, std::micro>(now - start).count();
}

}  // namespace

Engine::Engine(std::shared_ptr<const ModelRuntime> model,
               ServeOptions options)
    : queue_(options.queue_capacity),
      batcher_(queue_, options) {
  if (model == nullptr) {
    throw std::invalid_argument("Engine: null model");
  }
  if (options.threads == 0) {
    throw std::invalid_argument("Engine: needs at least one worker thread");
  }
  installed_ = Installed{std::move(model), 1};
  obs::global_set(engine_metrics().model_version, 1.0);
  workers_.reserve(options.threads);
  for (std::size_t i = 0; i < options.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Engine::~Engine() { stop(); }

std::future<Response> Engine::submit(blas::Matrix<float> features,
                                     std::chrono::microseconds deadline) {
  const EngineMetrics& m = engine_metrics();
  if (features.rows() == 0) {
    throw std::invalid_argument("serve: request carries no frames");
  }
  if (features.cols() != input_dim()) {
    throw std::invalid_argument(
        "serve: request feature dim " + std::to_string(features.cols()) +
        " != model input dim " + std::to_string(input_dim()));
  }
  Request r;
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.features = std::move(features);
  if (deadline > std::chrono::microseconds::zero()) {
    r.deadline = Clock::now() + deadline;
  }
  std::future<Response> fut = r.reply.get_future();
  obs::global_add(m.requests);
  try {
    queue_.push(std::move(r));
  } catch (const Overloaded&) {
    obs::global_add(m.rejects_overloaded);
    throw;
  }
  return fut;
}

std::uint64_t Engine::swap_model(std::shared_ptr<const ModelRuntime> next) {
  BGQHF_SPAN("serve", "model_swap");
  if (next == nullptr) {
    throw std::invalid_argument("swap_model: null model");
  }
  const EngineMetrics& m = engine_metrics();
  std::lock_guard<std::mutex> lock(model_mu_);
  if (next->input_dim() != installed_.runtime->input_dim() ||
      next->output_dim() != installed_.runtime->output_dim()) {
    throw std::invalid_argument(
        "swap_model: new model is " + std::to_string(next->input_dim()) +
        "->" + std::to_string(next->output_dim()) + ", serving " +
        std::to_string(installed_.runtime->input_dim()) + "->" +
        std::to_string(installed_.runtime->output_dim()));
  }
  installed_.runtime = std::move(next);
  ++installed_.version;
  obs::global_add(m.swaps);
  obs::global_set(m.model_version,
                  static_cast<double>(installed_.version));
  return installed_.version;
}

std::uint64_t Engine::swap_checkpoint(const std::string& path) {
  // Load and validate before touching the installed model: a corrupt file
  // on disk must leave the current model serving.
  return swap_model(ModelRuntime::from_checkpoint(path, model()->network()));
}

void Engine::stop() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  queue_.close();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

std::uint64_t Engine::model_version() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return installed_.version;
}

std::shared_ptr<const ModelRuntime> Engine::model() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return installed_.runtime;
}

Engine::Installed Engine::snapshot() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return installed_;
}

void Engine::worker_loop() {
  const EngineMetrics& m = engine_metrics();
  QuantizedScratch scratch;     // fp32 ping-pong + int8 pack workspace
  nn::ForwardScratch assembly;  // batch input / output staging
  for (;;) {
    std::vector<Request> batch = batcher_.next_batch();
    if (batch.empty()) return;  // queue closed and drained

    const Installed snap = snapshot();
    const std::size_t in_dim = snap.runtime->input_dim();
    const std::size_t out_dim = snap.runtime->output_dim();
    std::size_t frames = 0;
    for (const Request& r : batch) frames += r.frames();

    const Clock::time_point score_start = Clock::now();
    util::Timer timer;
    try {
      BGQHF_SPAN("serve", "score_batch");
      blas::ConstMatrixView<float> in;
      if (batch.size() == 1) {
        // Single-request batch: score straight from its feature matrix.
        in = batch.front().features.view();
      } else {
        blas::MatrixView<float> staged =
            assembly.ensure(false, frames, in_dim);
        std::size_t row = 0;
        for (const Request& r : batch) {
          for (std::size_t i = 0; i < r.frames(); ++i) {
            std::memcpy(&staged(row + i, 0), &r.features.view()(i, 0),
                        in_dim * sizeof(float));
          }
          row += r.frames();
        }
        in = staged;
      }
      blas::MatrixView<float> out = assembly.ensure(true, frames, out_dim);
      snap.runtime->score(in, out, scratch);
      obs::global_observe(m.score_us, timer.seconds() * 1e6);

      const Clock::time_point done = Clock::now();
      std::size_t row = 0;
      for (Request& r : batch) {
        Response resp;
        resp.id = r.id;
        resp.model_version = snap.version;
        resp.queue_wait_us = us_since(r.enqueued, score_start);
        resp.total_us = us_since(r.enqueued, done);
        resp.logits = blas::Matrix<float>(r.frames(), out_dim);
        for (std::size_t i = 0; i < r.frames(); ++i) {
          std::memcpy(&resp.logits(i, 0), &out(row + i, 0),
                      out_dim * sizeof(float));
        }
        row += r.frames();
        obs::global_observe(m.latency_us, resp.total_us);
        obs::global_add(m.responses);
        r.reply.set_value(std::move(resp));
      }
    } catch (...) {
      // A scoring failure (allocation, shape bug) fails the whole batch;
      // the engine itself keeps serving.
      const std::exception_ptr err = std::current_exception();
      for (Request& r : batch) {
        try {
          r.reply.set_exception(err);
        } catch (const std::future_error&) {
          // Promise already satisfied before the throw; nothing to fail.
        }
      }
    }
  }
}

}  // namespace bgqhf::serve
