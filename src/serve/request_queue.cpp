#include "serve/request_queue.h"

#include "serve/error.h"

namespace bgqhf::serve {

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {}

void RequestQueue::push(Request r) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) throw EngineStopped();
    if (pending_.size() >= capacity_) throw Overloaded(capacity_);
    r.enqueued = Clock::now();
    pending_frames_ += r.frames();
    pending_.push_back(std::move(r));
  }
  // Wake every waiting worker: one may be waiting for the queue to become
  // non-empty while another waits for the frame threshold.
  cv_.notify_all();
}

std::vector<Request> RequestQueue::pop_batch(std::size_t max_batch_frames,
                                             std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!pending_.empty()) {
      // Size-or-timeout: sleep until the frame threshold is met or the
      // oldest request has waited out the batching budget. Both a fresh
      // push and close() re-evaluate the predicate.
      const Clock::time_point cutoff = pending_.front().enqueued + timeout;
      cv_.wait_until(lock, cutoff, [&] {
        return closed_ || pending_frames_ >= max_batch_frames;
      });
      // Another worker may have drained the queue while we slept; go back
      // to waiting rather than returning an empty (= closed) batch.
      if (pending_.empty()) continue;
      std::vector<Request> batch;
      std::size_t batch_frames = 0;
      while (!pending_.empty()) {
        const std::size_t next = pending_.front().frames();
        // The first request always ships (even if alone it exceeds the
        // target); afterwards stop before overshooting the target.
        if (!batch.empty() && batch_frames + next > max_batch_frames) break;
        batch_frames += next;
        pending_frames_ -= next;
        batch.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
      return batch;
    }
    if (closed_) return {};
    cv_.wait(lock);
  }
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

}  // namespace bgqhf::serve
