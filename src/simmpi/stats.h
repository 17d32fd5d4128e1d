// Per-rank communication accounting.
//
// The paper's Figures 4–5 split MPI time into collective vs. point-to-point
// per function; the functional runtime keeps the same split (bytes, calls,
// blocked wall time) so small functional runs can be cross-checked against
// the analytic communication model. Collective time is additionally broken
// down by operation type (bcast/reduce/allreduce/...), which is what the
// measured Fig. 4/5 MPI breakdowns report.
//
// CommStats is a thin view over an obs::Registry: the p2p split is the
// "simmpi.p2p.*" metrics, the collective aggregate is "simmpi.coll.*", and
// each op class is "simmpi.coll.<op>.*" — histograms carry (seconds, calls)
// as (sum, count), counters carry bytes. Cross-rank aggregation
// (operator+=) is Registry::merge; the old hand-rolled field-by-field
// accumulate code is gone.
#pragma once

#include <cstddef>

#include "obs/registry.h"

namespace bgqhf::simmpi {

/// Collective operation classes tracked separately in CommStats.
enum class CollOp {
  kBarrier = 0,
  kBcast,
  kReduce,
  kAllreduce,
  kAllgather,
  kGather,
  kScatter,
};
inline constexpr std::size_t kNumCollOps = 7;

inline const char* to_string(CollOp op) {
  switch (op) {
    case CollOp::kBarrier: return "barrier";
    case CollOp::kBcast: return "bcast";
    case CollOp::kReduce: return "reduce";
    case CollOp::kAllreduce: return "allreduce";
    case CollOp::kAllgather: return "allgather";
    case CollOp::kGather: return "gather";
    case CollOp::kScatter: return "scatter";
  }
  return "?";
}

/// Snapshot of one collective op class (returned by value from op()).
struct OpStats {
  std::size_t calls = 0;
  std::size_t bytes = 0;       // logical payload bytes (uncompressed)
  std::size_t wire_bytes = 0;  // bytes actually moved (== bytes when exact)
  double seconds = 0;
};

class CommStats {
 public:
  void add_p2p(std::size_t bytes, double seconds);
  /// One collective call not attributed to an op class (rare internal
  /// steps); add_op() is the normal entry point.
  void add_collective(std::size_t bytes, double seconds);
  /// One collective call attributed to its op class (also counted in the
  /// aggregate collective_* metrics). Exact paths move exactly the logical
  /// bytes, so wire == raw.
  void add_op(CollOp op, std::size_t bytes, double seconds) {
    add_op_wire(op, bytes, bytes, seconds);
  }
  /// Same, with the compressed/raw byte split: `bytes` is the logical
  /// payload size, `wire_bytes` what actually crossed the mailboxes
  /// ("simmpi.coll.<op>.wire_bytes"). Fig. 4/5 report the reduction.
  void add_op_wire(CollOp op, std::size_t bytes, std::size_t wire_bytes,
                   double seconds);

  std::size_t p2p_messages() const;
  std::size_t p2p_bytes() const;
  double p2p_seconds() const;  // wall time blocked in send/recv

  std::size_t collective_calls() const;
  std::size_t collective_bytes() const;
  double collective_seconds() const;

  OpStats op(CollOp o) const;

  CommStats& operator+=(const CommStats& o) {
    registry_ += o.registry_;
    return *this;
  }

  /// Underlying metric bundle ("simmpi.*" names) for export alongside
  /// other registry-sourced measurements.
  const obs::Registry& registry() const { return registry_; }

 private:
  obs::Registry registry_;
};

}  // namespace bgqhf::simmpi
