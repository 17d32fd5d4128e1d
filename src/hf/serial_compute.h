// Serial aggregation over one or more workload shards.
//
// With a single shard this is plain single-process HF training. With
// several shards it mimics the distributed master's arithmetic exactly:
// shard i's sums take slot i of a PairwiseFold, the association the
// reduce tree uses over P computing ranks (rank 0's own shard in slot 0),
// so a distributed run over P ranks and a serial run over the same P
// shards produce bitwise-identical trajectories — the strong form of the
// paper's "no loss in accuracy" claim, asserted in
// tests/hf/equivalence_test.cpp.
#pragma once

#include <memory>
#include <vector>

#include "hf/aggregate.h"
#include "hf/compute.h"
#include "hf/workload.h"
#include "simmpi/compress.h"

namespace bgqhf::hf {

class SerialCompute : public HfCompute {
 public:
  /// `agg` mirrors the distributed aggregation arithmetic: with
  /// compression on, each (shard, segment) pair gets the same persistent
  /// error-feedback CompressState its rank would hold and blobs fold in
  /// the same rank order, so compressed serial == compressed distributed
  /// stays bitwise.
  explicit SerialCompute(std::vector<std::unique_ptr<Workload>> shards,
                         AggregationOptions agg = {});

  std::size_t num_params() const override;
  std::size_t total_train_frames() const override { return train_frames_; }

  void set_params(std::span<const float> theta) override;
  nn::BatchLoss gradient(std::span<float> grad_out) override;
  nn::BatchLoss gradient_with_squares(
      std::span<float> grad_out, std::span<float> grad_sq_out) override;
  void prepare_curvature(std::uint64_t seed) override;
  void curvature_product(std::span<const float> v,
                         std::span<float> out) override;
  nn::BatchLoss heldout_loss() override;

  /// Serial mirror of MasterCompute::set_curvature_fraction: applied to
  /// every shard, so a serial re-run of a mutated population stays
  /// bitwise-equivalent to the distributed one.
  void set_curvature_fraction(double fraction) {
    for (auto& shard : shards_) shard->set_curvature_fraction(fraction);
  }

 private:
  /// Compressed mirror of the root's per-segment rank-order blob fold:
  /// compress each shard's carrier slice through its own state and
  /// decode_add into `out` (zeroed first), shard 0 first.
  void fold_compressed(std::span<float> out,
                       std::vector<std::vector<float>>& carriers,
                       std::vector<std::vector<simmpi::CompressState>>& states);

  std::vector<std::unique_ptr<Workload>> shards_;
  std::size_t train_frames_ = 0;
  std::size_t curvature_frames_ = 0;
  std::vector<float> scratch_;

  AggregationOptions agg_;
  std::vector<std::size_t> bounds_;
  std::vector<std::vector<float>> carriers_;  // per-shard gradient residual
  std::vector<std::vector<float>> sq_carriers_;
  // states[shard][segment].
  std::vector<std::vector<simmpi::CompressState>> grad_states_;
  std::vector<std::vector<simmpi::CompressState>> sq_states_;
};

}  // namespace bgqhf::hf
