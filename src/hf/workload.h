// Per-shard computation interface.
//
// A Workload owns one shard of training data plus one shard of held-out
// data and computes *unnormalized sums* over them; normalization happens
// once at the aggregation layer (HfCompute), so serial and distributed
// runs are numerically identical given the same sharding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "nn/loss.h"

namespace bgqhf::hf {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t num_params() const = 0;
  virtual std::size_t train_frames() const = 0;

  /// Boundaries of independently aggregatable slices of the flat gradient
  /// (size = #segments + 1, first 0, last num_params()). The default is
  /// one segment; layered models expose one segment per layer, each with
  /// its own error-feedback state under compressed aggregation.
  virtual std::vector<std::size_t> segment_bounds() const {
    return {0, num_params()};
  }

  /// Install trial parameters (invalidates cached curvature activations if
  /// they were built at a different theta).
  virtual void set_params(std::span<const float> theta) = 0;

  /// grad_accum += d(sum train loss)/d(theta); returns summed loss stats
  /// over the local training shard.
  virtual nn::BatchLoss gradient(std::span<float> grad_accum) = 0;

  /// Like gradient(), additionally accumulating the element-wise square of
  /// every batch's gradient contribution into grad_sq_accum — the
  /// empirical-Fisher diagonal estimate feeding the Jacobi preconditioner.
  virtual nn::BatchLoss gradient_with_squares(
      std::span<float> grad_accum, std::span<float> grad_sq_accum) = 0;

  /// Re-draw the local curvature sample and cache forward activations at
  /// the installed theta. Deterministic in (seed, shard).
  virtual void prepare_curvature(std::uint64_t seed) = 0;
  virtual std::size_t curvature_frames() const = 0;

  /// Change the curvature resample rate of a live workload (LTFB mutation
  /// between training legs). Takes effect at the next prepare_curvature;
  /// workloads without a sampling rate ignore it.
  virtual void set_curvature_fraction(double fraction) { (void)fraction; }

  /// out_accum += sum over the curvature sample of G(theta) * v.
  virtual void curvature_product(std::span<const float> v,
                                 std::span<float> out_accum) = 0;

  /// Summed loss stats over the local held-out shard.
  virtual nn::BatchLoss heldout_loss() = 0;
};

/// A shard without frames: every sum it adds is empty. A rank given no
/// shard contributes through one.
class EmptyWorkload final : public Workload {
 public:
  explicit EmptyWorkload(std::size_t num_params) : num_params_(num_params) {}

  std::size_t num_params() const override { return num_params_; }
  std::size_t train_frames() const override { return 0; }
  void set_params(std::span<const float>) override {}
  nn::BatchLoss gradient(std::span<float>) override { return {}; }
  nn::BatchLoss gradient_with_squares(std::span<float>,
                                      std::span<float>) override {
    return {};
  }
  void prepare_curvature(std::uint64_t) override {}
  std::size_t curvature_frames() const override { return 0; }
  void curvature_product(std::span<const float>, std::span<float>) override {}
  nn::BatchLoss heldout_loss() override { return {}; }

 private:
  std::size_t num_params_;
};

}  // namespace bgqhf::hf
