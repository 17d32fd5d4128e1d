// HfCompute implementation for the distributed master (rank 0).
//
// Rank 0 is a computing rank: it holds shard 0, which distribute_shards
// delivers to its own mailbox, and runs the same ShardContribution as the
// workers. Each primitive broadcasts the command and its payload, computes
// rank 0's share, then joins the tree reduce_sum collectives with that
// share as slot 0, so only O(N) bytes ever reach rank 0. SerialCompute
// folds the same P shards in the same slot order through
// simmpi::PairwiseFold, making the aggregate arithmetic identical. Built
// without a shard waiting (e.g. over stub workers), rank 0 contributes
// empty partials, like a worker with no frames.
//
// With FtOptions::enabled the primitives and their data movement are the
// same; each op gets a reply_timeout deadline and each message a CRC, and
// a TimeoutError, Revoked or CorruptMessage makes the master revoke the
// communicator, shrink it to the survivors, record the excluded ranks,
// re-send θ and the curvature fraction, and re-run the interrupted
// primitive, recomputing rank 0's deterministic share (fault_tolerance.h).
// Sums then cover rank 0 and the responding workers and are divided by
// the frames those ranks hold, so every result stays a *mean over the
// data still in the job* and the Gauss-Newton estimate remains unbiased
// under worker loss. Rank 0's shard is never excluded.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hf/aggregate.h"
#include "hf/compute.h"
#include "hf/fault_tolerance.h"
#include "hf/phase_stats.h"
#include "hf/protocol.h"
#include "hf/worker.h"
#include "hf/workload.h"
#include "simmpi/communicator.h"

namespace bgqhf::hf {

class MasterCompute : public HfCompute {
 public:
  /// `num_params` / `total_train_frames` are known to the master from the
  /// shard-building phase. `stats`, when given, accumulates per-phase wall
  /// time on the master side (the functional Figs. 2/4 instrumentation).
  ///
  /// When distribute_shards left a shard in rank 0's own mailbox, the
  /// constructor receives it (receive_workload) and rank 0 trains on it;
  /// otherwise rank 0's partials are empty.
  ///
  /// `agg` + `segment_bounds` select the gradient-aggregation path; they
  /// must match every worker's (the trainer derives both from one config).
  /// When BGQHF_COMPRESS is on the gradient collectives run as one
  /// blocking compressed reduce per segment; bounds default to one
  /// whole-vector segment. Rejected under FT
  /// (util::ConfigError): a re-run primitive must recompute the same exact
  /// sums.
  MasterCompute(simmpi::Comm& comm, std::size_t num_params,
                std::size_t total_train_frames,
                PhaseStats* stats = nullptr, FtOptions ft = {},
                AggregationOptions agg = {},
                std::vector<std::size_t> segment_bounds = {});
  // share_ refers to comm_ and *workload_.
  MasterCompute(const MasterCompute&) = delete;
  MasterCompute& operator=(const MasterCompute&) = delete;

  std::size_t num_params() const override { return num_params_; }
  std::size_t total_train_frames() const override { return train_frames_; }

  void set_params(std::span<const float> theta) override;
  nn::BatchLoss gradient(std::span<float> grad_out) override;
  nn::BatchLoss gradient_with_squares(
      std::span<float> grad_out, std::span<float> grad_sq_out) override;
  void prepare_curvature(std::uint64_t seed) override;
  void curvature_product(std::span<const float> v,
                         std::span<float> out) override;
  nn::BatchLoss heldout_loss() override;

  /// Broadcast a new curvature resample fraction to every (live) worker
  /// and apply it to rank 0's shard (LTFB hyperparameter mutation applied
  /// to a running population). No reply; takes effect at each rank's next
  /// prepare_curvature.
  void set_curvature_fraction(double fraction);

  /// Tell all (live) workers to exit their loops. Call exactly once, after
  /// the optimizer finishes.
  void shutdown();

  /// Workers excluded so far (FT mode), in exclusion order, as ranks of
  /// the communicator this master was built on.
  const std::vector<int>& excluded_workers() const { return excluded_; }
  /// Number of workers still participating.
  int live_workers() const { return comm_.size() - 1; }

 private:
  /// Run one primitive. Under FT a failure revokes, shrinks and records
  /// the excluded workers (recover), then re-runs `body` on the survivors;
  /// a second failure that excludes nobody is rethrown.
  template <typename Fn>
  auto run(Fn&& body);
  /// Shrink to the survivors after a failure revoked by world rank
  /// `revoker` for `reason`; returns how many workers were excluded.
  std::size_t recover(int revoker, const std::string& reason);
  void broadcast_command(Command cmd, std::uint64_t aux = 0);
  /// Primitive bodies that resync also replays.
  void send_params(std::span<const float> theta);
  void send_prepare(std::uint64_t seed);
  nn::BatchLoss gradient_impl(std::span<float> grad_out,
                              std::span<float> grad_sq_out);

  /// The communicator the primitives run on: a copy of the caller's,
  /// replaced by the survivors' after each shrink.
  simmpi::Comm comm_;
  std::size_t num_params_;
  std::size_t train_frames_;
  std::size_t curvature_frames_ = 0;
  PhaseStats* stats_;

  FtOptions ft_;
  /// Rank 0's shard (an EmptyWorkload when none was delivered) and the
  /// scratch, carriers and compression states its share runs through.
  std::unique_ptr<Workload> workload_;
  ShardContribution share_;
  /// Original rank of each member of comm_ (index = current rank).
  std::vector<int> ranks_;
  std::vector<int> excluded_;
  /// Per-member curvature sample sizes from the last prepare_curvature
  /// (rank 0's first), so a worker lost mid-CG can be subtracted from the
  /// denominator.
  std::vector<std::size_t> curvature_counts_;
  /// Replayed to the survivors before a primitive re-runs: a worker
  /// starved by a failed broadcast may have missed a reply-less command
  /// (θ, the curvature fraction), and re-sent θ invalidates the curvature
  /// sample, so the prepare since θ is replayed too. θ is kept under FT
  /// only.
  std::vector<float> theta_;
  std::optional<double> curvature_fraction_;
  std::optional<std::uint64_t> prepared_seed_;  // prepared since theta_
  bool resync_ = false;
};

}  // namespace bgqhf::hf
