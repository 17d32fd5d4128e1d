// Deterministic fault injection for the in-process MPI-subset runtime.
//
// The paper's master/worker loop assumes every rank of a 4096-8192-way job
// answers every collective; at big-data deployment scale workers stall,
// die, and corrupt payloads. FaultInjector models exactly those failures —
// message drop, delivery delay (a straggling sender), single-bit payload
// corruption, and rank death at a scheduled operation count — so the
// recovery layer above (timeout-aware receives, survivor reweighting,
// checkpoint/restart) can be exercised and replayed deterministically.
//
// Determinism: every decision is a pure function of (seed, source rank,
// per-rank operation index). Per-rank state is only ever touched by that
// rank's own thread, so two runs with the same seed and the same per-rank
// operation sequences make identical decisions regardless of thread
// interleaving.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"

namespace bgqhf::simmpi {

/// Base of the failures a fault-tolerant layer recovers from by revoking
/// the communicator and shrinking it to the survivors: a missed deadline,
/// a revoked communicator, a corrupt payload. (An injected kill is not
/// one: the killed rank itself is gone.)
class CommError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by an op whose deadline passes first instead of blocking
/// forever. Carries the waiting rank, the awaited source, and the tag, so
/// the recovery layer can attribute the stall to a specific peer.
class TimeoutError : public CommError {
 public:
  TimeoutError(int rank, int source, int tag)
      : CommError("simmpi: rank " + std::to_string(rank) +
                  " timed out waiting for source " + std::to_string(source) +
                  " tag " + std::to_string(tag)),
        rank_(rank),
        source_(source),
        tag_(tag) {}

  int rank() const noexcept { return rank_; }
  int source() const noexcept { return source_; }
  int tag() const noexcept { return tag_; }

 private:
  int rank_;
  int source_;
  int tag_;
};

/// Thrown by every pending and later op on a revoked communicator (see
/// Comm::revoke). Carries the world rank that revoked it and that rank's
/// reason, so survivors can attribute the failure without a message.
class Revoked : public CommError {
 public:
  Revoked(int rank, int revoker, const std::string& reason)
      : CommError("simmpi: rank " + std::to_string(rank) +
                  ": communicator revoked by world rank " +
                  std::to_string(revoker) +
                  (reason.empty() ? "" : " (" + reason + ")")),
        revoker_(revoker),
        reason_(reason) {}

  int revoker() const noexcept { return revoker_; }
  const std::string& reason() const noexcept { return reason_; }

 private:
  int revoker_;
  std::string reason_;
};

/// Thrown by a receive whose payload fails its CRC32 check, before the
/// payload is used or forwarded.
class CorruptMessage : public CommError {
 public:
  CorruptMessage(int rank, int source, int tag)
      : CommError("simmpi: rank " + std::to_string(rank) +
                  " received a corrupt payload from source " +
                  std::to_string(source) + " tag " + std::to_string(tag)),
        source_(source),
        tag_(tag) {}

  int source() const noexcept { return source_; }
  int tag() const noexcept { return tag_; }

 private:
  int source_;
  int tag_;
};

/// Thrown from inside a rank's communication ops once its scheduled kill
/// fires: the rank "dies" mid-operation and stops participating, exactly
/// like a crashed MPI process observed from the survivors.
class RankKilledError : public std::runtime_error {
 public:
  explicit RankKilledError(int rank)
      : std::runtime_error("simmpi: rank " + std::to_string(rank) +
                           " killed by fault schedule"),
        rank_(rank) {}
  int rank() const noexcept { return rank_; }

 private:
  int rank_;
};

/// Aggregate of every rank failure in one run_ranks job (thrown when more
/// than one rank failed; a single failure is rethrown with its own type).
class RankErrors : public std::runtime_error {
 public:
  struct Failure {
    int rank = 0;
    std::string what;
  };

  explicit RankErrors(std::vector<Failure> failures)
      : std::runtime_error(render(failures)), failures_(std::move(failures)) {}

  const std::vector<Failure>& failures() const noexcept { return failures_; }

 private:
  static std::string render(const std::vector<Failure>& failures) {
    std::string msg =
        "simmpi: " + std::to_string(failures.size()) + " ranks failed:";
    for (const auto& f : failures) {
      msg += "\n  [rank " + std::to_string(f.rank) + "] " + f.what;
    }
    return msg;
  }

  std::vector<Failure> failures_;
};

/// One scheduled rank death: every communication op on `rank` throws
/// RankKilledError once the rank has executed `after_ops` ops.
struct KillSchedule {
  int rank = -1;
  std::size_t after_ops = 0;
};

/// One scheduled fault on one message: the `send_index`-th send (0-based,
/// over every send) that `rank` makes. Lets a test aim one drop, bit flip
/// or delay at one destination of a fan-out.
struct SendSchedule {
  int rank = -1;
  std::size_t send_index = 0;
};

struct FaultConfig {
  std::uint64_t seed = 0;
  /// Probability a sent message is silently discarded.
  double drop_probability = 0.0;
  /// Probability one payload bit is flipped in transit.
  double corrupt_probability = 0.0;
  /// Probability the sender stalls `delay_seconds` before delivery (a
  /// straggler; delivery order per (source, tag) is preserved).
  double delay_probability = 0.0;
  double delay_seconds = 0.0;
  std::vector<KillSchedule> kills;
  /// Scheduled sends to drop, to flip one bit in (unless dropped), and to
  /// delay by delay_seconds.
  std::vector<SendSchedule> drop_sends;
  std::vector<SendSchedule> corrupt_sends;
  std::vector<SendSchedule> delay_sends;

  bool any_active() const {
    return drop_probability > 0.0 || corrupt_probability > 0.0 ||
           delay_probability > 0.0 || !kills.empty() || !drop_sends.empty() ||
           !corrupt_sends.empty() || !delay_sends.empty();
  }
};

struct Message;  // message.h

/// What the injector decided for one send.
enum class FaultAction { kDeliver, kDrop, kCorrupt, kDelay };

/// Per-rank tally of decisions, for assertions and degraded-mode reports.
struct FaultLog {
  std::size_t sends = 0;
  std::size_t drops = 0;
  std::size_t corruptions = 0;
  std::size_t delays = 0;
  /// Action per send, in send order (the deterministic-replay witness).
  std::vector<FaultAction> actions;
};

class FaultInjector {
 public:
  FaultInjector(FaultConfig config, int world_size);

  /// Count one communication op on `rank`; throws RankKilledError when the
  /// rank's scheduled kill has fired (and on every op thereafter).
  void on_op(int rank);

  /// Decide the fate of one message leaving `source`. kCorrupt replaces the
  /// payload with a copy with one bit flipped at a seeded offset (its CRC,
  /// if any, still describes the original bytes); kDelay
  /// means the caller should stall delay_seconds before delivering.
  FaultAction on_send(int source, Message& m);

  bool killed(int rank) const { return ranks_.at(rank).killed; }
  const FaultLog& log(int rank) const { return ranks_.at(rank).log; }
  double delay_seconds() const { return config_.delay_seconds; }

 private:
  struct RankState {
    util::Rng rng;
    std::size_t ops = 0;
    std::size_t kill_after = 0;
    bool kill_scheduled = false;
    bool killed = false;
    // Scheduled send indices per fault class.
    std::vector<std::size_t> drop_at;
    std::vector<std::size_t> corrupt_at;
    std::vector<std::size_t> delay_at;
    FaultLog log;
  };

  FaultConfig config_;
  std::vector<RankState> ranks_;  // each slot touched only by its own rank
};

}  // namespace bgqhf::simmpi
