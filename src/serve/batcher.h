// Dynamic batcher: the size-or-timeout batching policy over a RequestQueue.
//
// Workers call next_batch(); it blocks on the queue until the policy says a
// batch should ship (target frames reached, or the oldest request has
// waited out the timeout), filters out requests whose deadline has already
// passed — failing their promises with DeadlineExceeded instead of wasting
// GEMM time on them — and records the queue-wait and batch-shape
// histograms the serving dashboards read.
#pragma once

#include <vector>

#include "serve/options.h"
#include "serve/request.h"
#include "serve/request_queue.h"

namespace bgqhf::serve {

class DynamicBatcher {
 public:
  DynamicBatcher(RequestQueue& queue, const ServeOptions& options)
      : queue_(queue), options_(options) {}

  /// Next batch to score, per the size-or-timeout policy. Expired-deadline
  /// requests are rejected here, never returned. An empty vector means the
  /// queue is closed and fully drained — the worker should exit.
  std::vector<Request> next_batch();

 private:
  RequestQueue& queue_;
  ServeOptions options_;
};

}  // namespace bgqhf::serve
