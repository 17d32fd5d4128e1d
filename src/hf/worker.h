// One rank's share of the master/worker protocol: the per-command compute
// every rank runs on its own shard (ShardContribution), and the command
// loop of the ranks besides the master (worker_loop).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hf/aggregate.h"
#include "hf/fault_tolerance.h"
#include "hf/phase_stats.h"
#include "hf/workload.h"
#include "nn/loss.h"
#include "simmpi/communicator.h"
#include "simmpi/compress.h"

namespace bgqhf::hf {

/// Computes this rank's partial sums on its workload and joins the
/// collective that concludes each primitive. Every rank runs one: workers
/// from worker_loop, the master (rank 0) from MasterCompute, between its
/// broadcast of the command and the reduce, so children's partials queue
/// in rank 0's mailbox while it computes its own. Rank 0's partial is slot
/// 0 of every reduce, which is why SerialCompute folds P real shards in
/// rank order.
///
/// On the root (rank 0) the spans given as outputs receive the reduced
/// totals and the returned loss stats / counts are the job's; elsewhere
/// the outputs are empty and the returned values are this rank's own.
/// Every op waits at most ft.reply_deadline() on the root and
/// ft.command_deadline() elsewhere.
class ShardContribution {
 public:
  /// `comm` and `workload` must outlive this object; `comm` may be
  /// reassigned (a shrink) between calls. `bounds` are the gradient
  /// segments for compressed `agg` (empty = one whole-vector segment) and
  /// must match every rank's; the scratch, carriers and error-feedback
  /// states are allocated here, once.
  ShardContribution(simmpi::Comm& comm, Workload& workload, FtOptions ft,
                    AggregationOptions agg, std::vector<std::size_t> bounds);

  /// Gradient sums (and, with `squares`, squared-gradient sums for the
  /// Jacobi preconditioner), then the loss stats.
  nn::BatchLoss gradient(bool squares, std::span<float> grad_out,
                         std::span<float> sq_out);
  /// Draw the curvature sample; the root gets every rank's sample frames
  /// in rank order (gathered, not summed, so a rank lost mid-CG can leave
  /// the product denominator exactly).
  std::vector<std::size_t> prepare_curvature(std::uint64_t seed);
  void curvature_product(std::span<const float> v, std::span<float> out);
  nn::BatchLoss heldout_loss();

 private:
  simmpi::Deadline deadline() const;
  /// Exact blocking reduce of `partial`; on the root the total is copied
  /// into `out`.
  void reduce(std::vector<float>& partial, std::span<float> out);
  /// Compressed blocking reduce of `carrier`, one collective per segment
  /// through that segment's state; on the root the totals land in `out`.
  void reduce_compressed(std::vector<float>& carrier, std::span<float> out,
                         std::vector<simmpi::CompressState>& states);
  nn::BatchLoss reduce_loss(const nn::BatchLoss& mine);

  simmpi::Comm& comm_;
  Workload& workload_;
  FtOptions ft_;
  AggregationOptions agg_;
  std::vector<std::size_t> bounds_;
  std::vector<float> scratch_;
  std::vector<float> sq_scratch_;
  // Compressed-aggregation state. The carriers are separate from the
  // scratch because they hold the error-feedback residual between
  // gradient calls, which the curvature path re-zeroing the scratch must
  // not wipe.
  std::vector<float> grad_carrier_;
  std::vector<float> sq_carrier_;
  std::vector<simmpi::CompressState> grad_states_;
  std::vector<simmpi::CompressState> sq_states_;
};

/// Serve master commands until kShutdown. Must be called by every rank
/// except 0, in lockstep with a MasterCompute on rank 0; each command's
/// compute and reply run through a ShardContribution. `stats`, when given,
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
/// `agg` selects the gradient-aggregation path: when compressed the
/// gradient replies become per-layer-segment blocking compressed reduces,
/// with one error-feedback CompressState per segment persisted across
/// calls. Must match the master's options. Rejected under
/// FT (util::ConfigError): a re-run primitive must recompute the same
/// exact sums, which error-feedback residuals would not.
void worker_loop(simmpi::Comm& comm, Workload& workload,
                 PhaseStats* stats = nullptr, const FtOptions& ft = {},
                 const AggregationOptions& agg = {});

}  // namespace bgqhf::hf
