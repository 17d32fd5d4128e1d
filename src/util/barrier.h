// Reusable counting barrier.
//
// Used by the simmpi runtime for MPI_Barrier semantics and by tests that
// need rank threads to rendezvous. (std::barrier exists in C++20 but its
// completion-function template complicates storage in containers; this is
// a small fixed-API alternative.)
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace bgqhf::util {

class Barrier {
 public:
  explicit Barrier(std::size_t parties) : parties_(parties) {}

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Block until `parties` threads have arrived; then all are released and
  /// the barrier resets for the next phase.
  void arrive_and_wait() {
    static const std::atomic<bool> never{false};
    arrive_and_wait(std::chrono::steady_clock::time_point::max(), never);
  }

  /// arrive_and_wait() that gives up once `deadline` passes or `revoked`
  /// becomes true, withdrawing this arrival; returns false in that case.
  bool arrive_and_wait(std::chrono::steady_clock::time_point deadline,
                       const std::atomic<bool>& revoked) {
    std::unique_lock<std::mutex> lock(mu_);
    const std::size_t phase = phase_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++phase_;
      cv_.notify_all();
      return true;
    }
    const auto released = [&] { return phase_ != phase || revoked.load(); };
    if (deadline == std::chrono::steady_clock::time_point::max()) {
      cv_.wait(lock, released);
    } else {
      cv_.wait_until(lock, deadline, released);
    }
    if (phase_ != phase) return true;
    --arrived_;
    return false;
  }

  /// Wake every waiter so it re-reads its revoked flag.
  void wake() {
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }

  std::size_t parties() const noexcept { return parties_; }

 private:
  const std::size_t parties_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t arrived_ = 0;
  std::size_t phase_ = 0;
};

}  // namespace bgqhf::util
