// Per-rank incoming message queue with MPI-style envelope matching.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "simmpi/message.h"

namespace bgqhf::simmpi {

/// Unbounded FIFO of messages addressed to one rank. Matching follows MPI
/// semantics: among queued messages, the *first* whose (source, tag) matches
/// the request (with wildcards) on the requested communicator context is
/// delivered — non-matching messages stay queued, so interleaved tag
/// streams and communicators do not interfere.
class Mailbox {
 public:
  using Clock = std::chrono::steady_clock;

  void push(Message m);

  /// Block until a matching message arrives, then remove and return it.
  /// Returns nullopt instead once `deadline` passes or `revoked` becomes
  /// true (the caller tells the two apart by re-reading `revoked`) — the
  /// primitive that lets the layers above turn a lost message or a failed
  /// peer into a typed error instead of a deadlock.
  std::optional<Message> pop(int source, int tag, int context,
                             Clock::time_point deadline,
                             const std::atomic<bool>& revoked);

  /// Non-destructive test for a matching message.
  bool probe(int source, int tag, int context) const;

  /// Drop every queued message of `context` and wake all waiters, so a
  /// receive blocked on that (just revoked) context re-reads its flag.
  void revoke(int context);

  std::size_t pending() const;

 private:
  static bool matches(const Message& m, int source, int tag, int context) {
    return m.context == context &&
           (source == kAnySource || m.source == source) &&
           (tag == kAnyTag || m.tag == tag);
  }
  /// Remove and return the first match; caller holds mu_.
  std::optional<Message> take(int source, int tag, int context);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
};

}  // namespace bgqhf::simmpi
