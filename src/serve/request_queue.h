// Bounded, deadline-aware request queue.
//
// One mutex + one condition variable protect a deque of pending requests.
// Admission is strict: push() on a full queue throws Overloaded instead of
// blocking or growing — the engine's backpressure boundary. pop_batch()
// blocks a worker until the size-or-timeout condition its caller (the
// DynamicBatcher) passes in is met: enough frames accumulated, or the
// oldest pending request has waited long enough, or the queue was closed.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "serve/request.h"

#include <condition_variable>

namespace bgqhf::serve {

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  /// Enqueue a request (stamps Request::enqueued). Throws Overloaded when
  /// the queue holds `capacity` requests, EngineStopped after close().
  void push(Request r);

  /// Block until at least one request is pending, then return a batch:
  /// requests are popped in FIFO order until the batch reaches
  /// `max_batch_frames` (the first request always joins, however large).
  /// A partial batch is returned once the oldest pending request has
  /// waited `timeout`; an empty vector means closed-and-drained.
  std::vector<Request> pop_batch(std::size_t max_batch_frames,
                                 std::chrono::microseconds timeout);

  /// Stop admitting (push() throws EngineStopped) and wake every waiter.
  /// Already-queued requests stay poppable, so workers drain them before
  /// pop_batch() reports closed-and-drained. Idempotent.
  void close();

  std::size_t size() const;
  bool closed() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> pending_;
  std::size_t pending_frames_ = 0;
  bool closed_ = false;
};

}  // namespace bgqhf::serve
