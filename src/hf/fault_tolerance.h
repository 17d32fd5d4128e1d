// Fault-tolerance options for the master/worker protocol.
//
// Fault tolerance changes how a failure is handled, never how data moves:
// an FT job runs the same command loop over the same tree collectives as
// any other job (so fault-free it is bitwise identical to the collective
// path), with three additions:
//
//   * every op carries a deadline (reply_timeout on the master,
//     command_timeout on workers), so a dead or silent peer surfaces as a
//     typed simmpi::TimeoutError instead of a hang;
//   * every message carries a CRC32 (Comm::set_checksums), checked before
//     the payload is used or forwarded; a mismatch is simmpi::CorruptMessage;
//   * on TimeoutError, Revoked or CorruptMessage the rank that sees it
//     revokes the communicator and the survivors shrink it (ULFM's
//     MPI_Comm_revoke / MPI_Comm_shrink). The master records the excluded
//     ranks, re-sends the state a starved worker may have missed (θ, the
//     curvature fraction) and re-runs the interrupted primitive over the
//     survivors — every sum stays an exact mean over the data still in the
//     job. A worker that received a corrupt payload revokes with that
//     reason and withdraws instead of joining the shrink.
#pragma once

#include "simmpi/collective.h"

namespace bgqhf::hf {

/// Revoke reason of a worker that withdrew over a corrupt payload; the
/// master's exclusion log quotes it.
inline constexpr const char* kCorruptPayloadReason =
    "worker reported corrupt payload";

struct FtOptions {
  /// Arm deadlines, checksums, and revoke-and-shrink recovery.
  bool enabled = false;
  /// Seconds the master waits on any one op (a reply covers the workers'
  /// compute) before it revokes, and the longest it waits for survivors
  /// in the shrink that follows.
  double reply_timeout = 1.0;
  /// Seconds a worker waits on any one op; with no command in that time
  /// it concludes the master is gone and exits its loop.
  double command_timeout = 30.0;
  /// Log worker exclusions and recoveries (BGQHF_WARN).
  bool verbose = true;

  simmpi::Deadline reply_deadline() const {
    return enabled ? simmpi::Deadline::in(reply_timeout)
                   : simmpi::Deadline::never();
  }
  simmpi::Deadline command_deadline() const {
    return enabled ? simmpi::Deadline::in(command_timeout)
                   : simmpi::Deadline::never();
  }
};

}  // namespace bgqhf::hf
