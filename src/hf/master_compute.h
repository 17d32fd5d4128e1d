// HfCompute implementation for the distributed master (rank 0).
//
// Each primitive is one broadcast command plus payload collectives; worker
// sums arrive through tree reduce_sum collectives (the master contributes a
// zero vector as slot 0), so only O(N) bytes ever reach rank 0 — the
// gather-then-sum it replaces buffered P*N at the root. SerialCompute folds
// the same slots through simmpi::PairwiseFold, making the aggregate
// arithmetic identical over the same shards.
//
// With FtOptions::enabled the same primitives run over the flat,
// CRC-framed, timeout-aware protocol (fault_tolerance.h): the master
// tracks worker liveness, retries timed-out replies with backoff, then
// excludes dead workers and reweights gradient/curvature sums by the
// surviving data fraction — every sum stays a *mean over the data that
// actually responded*, so the Gauss-Newton estimate remains unbiased
// under worker loss. Replies fold through PairwiseFold over the same rank
// slots the reduce tree pairs (lost workers contribute the identity), so
// fault-free the arithmetic matches the collective path bitwise.
#pragma once

#include <cstdint>
#include <vector>

#include "hf/aggregate.h"
#include "hf/compute.h"
#include "hf/fault_tolerance.h"
#include "hf/phase_stats.h"
#include "hf/protocol.h"
#include "simmpi/communicator.h"
#include "simmpi/compress.h"

namespace bgqhf::hf {

class MasterCompute : public HfCompute {
 public:
  /// `num_params` / `total_train_frames` are known to the master from the
  /// shard-building phase. `stats`, when given, accumulates per-phase wall
  /// time on the master side (the functional Figs. 2/4 instrumentation).
  ///
  /// `agg` + `segment_bounds` select the gradient-aggregation path; they
  /// must match every worker's (the trainer derives both from one config).
  /// When `agg` is active the gradient collectives run per segment over
  /// async-reduce streams, compressed when BGQHF_COMPRESS is on; bounds
  /// default to one whole-vector segment. Ignored under FT — the CRC
  /// protocol stays exact, lossy blobs from a worker that later dies would
  /// leave its residual permanently dropped.
  MasterCompute(simmpi::Comm& comm, std::size_t num_params,
                std::size_t total_train_frames,
                PhaseStats* stats = nullptr, FtOptions ft = {},
                AggregationOptions agg = {},
                std::vector<std::size_t> segment_bounds = {});

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
  /// (LTFB hyperparameter mutation applied to a running population). No
  /// reply; takes effect at each worker's next prepare_curvature.
  void set_curvature_fraction(double fraction);

  /// Tell all (live) workers to exit their loops. Call exactly once, after
  /// the optimizer finishes.
  void shutdown();

  /// Workers excluded so far (FT mode), in exclusion order.
  const std::vector<int>& excluded_workers() const { return excluded_; }
  /// Number of workers still participating.
  int live_workers() const;

 private:
  void broadcast_command(Command cmd, std::uint64_t aux = 0);
  /// Tree-reduce the workers' equal-length vectors into `out`; the
  /// master's own contribution (slot 0 of the tree) is zero.
  void reduce_sum(std::span<float> out);
  /// Segmented variant: start one async reduce per segment (compressed
  /// when agg_.compress is on, using `states`), then wait them all into
  /// the matching slices of `out`.
  void reduce_sum_segmented(std::span<float> out, int stream_base,
                            std::vector<simmpi::CompressState>* states);
  nn::BatchLoss reduce_loss_stats();

  // ---- fault-tolerant path ----
  /// Frame the payload once and send that frame to every live worker.
  void ft_send_all(std::span<const std::byte> payload, int tag);
  /// Collect one framed reply per live worker in rank order. Returns the
  /// reply frame per worker rank (ok == false: excluded this round);
  /// timed-out / corrupt-reply workers are excluded and logged.
  std::vector<FtFrame<std::byte>> ft_collect_replies();
  void exclude(int rank, const char* reason);

  simmpi::Comm* comm_;
  std::size_t num_params_;
  std::size_t train_frames_;
  std::size_t curvature_frames_ = 0;
  PhaseStats* stats_;

  AggregationOptions agg_;
  std::vector<std::size_t> bounds_;
  std::vector<float> zeros_;  // master's (zero) reduce contribution
  std::vector<simmpi::CompressState> grad_states_;
  std::vector<simmpi::CompressState> sq_states_;

  FtOptions ft_;
  std::vector<char> alive_;  // by rank; [0] unused
  std::vector<int> excluded_;
  /// Per-rank curvature sample sizes from the last prepare_curvature, so a
  /// worker lost mid-CG can be subtracted from the product denominator.
  std::vector<std::size_t> curvature_counts_;
};

}  // namespace bgqhf::hf
