// Worker-side command loop.
#pragma once

#include "hf/aggregate.h"
#include "hf/fault_tolerance.h"
#include "hf/phase_stats.h"
#include "hf/workload.h"
#include "simmpi/communicator.h"

namespace bgqhf::hf {

/// Serve master commands until kShutdown. The workload computes local
/// unnormalized sums; every reply is a tree reduce_sum the master joins
/// with a zero contribution. Must be called by every rank except 0, in
/// lockstep with a MasterCompute on rank 0. `stats`, when given,
/// accumulates per-phase wall time (compute + the reductions that conclude
/// each phase).
///
/// With `ft.enabled` the loop is the same; only failures are handled
/// differently (fault_tolerance.h). Every op waits at most
/// ft.command_timeout — with no command in that time the worker concludes
/// the master is gone and exits — and checks every payload's CRC. A
/// corrupt payload makes the worker log it, revoke the communicator with
/// that reason, and withdraw rather than train on garbage; a timeout or a
/// revoke by another rank makes it join the shrink and serve on among the
/// survivors.
///
/// `agg` selects the gradient-aggregation path: when active (compressed
/// and/or overlapped) the gradient replies become per-layer-segment
/// nonblocking reduces matching MasterCompute's, with one error-feedback
/// CompressState per segment persisted across calls. Must match the
/// master's options. Rejected under FT (util::ConfigError): a re-run
/// primitive must recompute the same exact sums, which error-feedback
/// residuals would not.
void worker_loop(simmpi::Comm& comm, Workload& workload,
                 PhaseStats* stats = nullptr, const FtOptions& ft = {},
                 const AggregationOptions& agg = {});

}  // namespace bgqhf::hf
