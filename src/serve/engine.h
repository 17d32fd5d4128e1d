// The serving engine: queue -> dynamic batcher -> worker pool -> runtime.
//
// submit() is the single client entry point: it admits a request into the
// bounded queue (throwing Overloaded at capacity — backpressure, not
// unbounded growth) and returns a future. Worker threads pull batches from
// the DynamicBatcher, snapshot the current ModelRuntime, assemble the
// requests' frames into one GEMM batch, score it through the fused-epilogue
// forward path, and fulfill each request's promise with its row slice.
//
// Hot swap: swap_model() atomically flips the shared_ptr the workers
// snapshot per batch. In-flight batches drain on the runtime they started
// with (their snapshot keeps it alive); the old model is destroyed when the
// last such batch completes. No request is ever scored half-and-half.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.h"
#include "serve/model_runtime.h"
#include "serve/options.h"
#include "serve/request.h"
#include "serve/request_queue.h"

namespace bgqhf::serve {

class Engine {
 public:
  /// Start `options.threads` scoring workers over `model`.
  Engine(std::shared_ptr<const ModelRuntime> model, ServeOptions options);
  ~Engine();  // stop()

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Admit a request (frames x input_dim). Throws Overloaded when the
  /// queue is full, EngineStopped after stop(), std::invalid_argument on a
  /// feature-dimension mismatch. `deadline` (relative; zero = none) fails
  /// the future with DeadlineExceeded if the request is still queued when
  /// it expires.
  std::future<Response> submit(
      blas::Matrix<float> features,
      std::chrono::microseconds deadline = std::chrono::microseconds::zero());

  /// Atomically install `next` as the serving model; returns the new model
  /// version. Throws std::invalid_argument if its input/output dimensions
  /// differ from the current model (clients' feature shapes would break).
  std::uint64_t swap_model(std::shared_ptr<const ModelRuntime> next);

  /// Load an HF checkpoint (weights-only, CRC-validated) onto the current
  /// model's topology and swap it in. Throws hf::CheckpointError on a bad
  /// file; the current model keeps serving when the load fails.
  std::uint64_t swap_checkpoint(const std::string& path);

  /// Stop admitting, score everything already queued, and join the
  /// workers. Idempotent; the destructor calls stop().
  void stop();

  std::uint64_t model_version() const;
  std::shared_ptr<const ModelRuntime> model() const;
  std::size_t input_dim() const { return model()->input_dim(); }

 private:
  struct Installed {
    std::shared_ptr<const ModelRuntime> runtime;
    std::uint64_t version = 0;
  };

  Installed snapshot() const;
  void worker_loop();

  RequestQueue queue_;
  DynamicBatcher batcher_;

  mutable std::mutex model_mu_;
  Installed installed_;

  std::atomic<std::uint64_t> next_id_{1};
  std::vector<std::thread> workers_;
  std::mutex stop_mu_;  // serializes stop(); guards workers_ after start
};

}  // namespace bgqhf::serve
