// Typed serving-path errors.
//
// The engine never fails a request with a bare std::runtime_error: every
// rejection is a distinct type so callers (the load generator, the CI
// replay gate) can count and branch on the cause without parsing what()
// text. Overloaded is the backpressure signal — the bounded queue refused
// admission instead of growing without limit and melting tail latency for
// everyone already queued.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace bgqhf::serve {

/// Base of every serving rejection.
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Admission control: the request queue is at capacity. Clients should
/// back off and retry; the engine sheds load instead of queueing it.
class Overloaded : public ServeError {
 public:
  explicit Overloaded(std::size_t capacity)
      : ServeError("serve: overloaded, queue at capacity " +
                   std::to_string(capacity)),
        capacity_(capacity) {}

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t capacity_;
};

/// The request's deadline passed while it waited in the queue; scoring it
/// would burn GEMM time on an answer nobody is still waiting for.
class DeadlineExceeded : public ServeError {
 public:
  DeadlineExceeded() : ServeError("serve: deadline exceeded in queue") {}
};

/// The engine is stopped (or stopping) and no longer admits requests.
class EngineStopped : public ServeError {
 public:
  EngineStopped() : ServeError("serve: engine stopped") {}
};

}  // namespace bgqhf::serve
