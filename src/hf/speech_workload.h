// Workload over speech dataset shards, for both training criteria.
//
// Cross-entropy processes frames in large GEMM-friendly batches; the
// sequence criterion processes utterance-by-utterance because its loss
// needs a forward-backward sweep over each utterance (this per-frame cost
// difference is exactly why Table I shows different scaling for the two).
//
// Curvature products follow the paper: a fresh sample (~1-3% of the local
// shard's frames) is drawn each time CG-Minimize starts. The sampled rows
// are packed into owned blocks of at most batch_frames rows, and their
// forward activations + output distributions are cached at the current
// theta, so each of the tens of CG matvecs only pays one full-height
// R-pass and backprop per block. Shards are frame-balanced, so a per-shard
// frame budget gives every rank the same curvature work and the job a
// sample of `fraction x total frames` (to within one frame per shard) at
// any shard count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "hf/workload.h"
#include "nn/gaussnewton.h"
#include "nn/network.h"
#include "nn/sequence.h"
#include "speech/dataset.h"
#include "util/rng.h"

namespace bgqhf::hf {

enum class Criterion { kCrossEntropy, kSequence };

struct SpeechWorkloadOptions {
  Criterion criterion = Criterion::kCrossEntropy;
  /// Frames per forward/backward batch (cross-entropy path), and the most
  /// rows in one packed curvature block (both criteria).
  std::size_t batch_frames = 1024;
  /// Fraction of local training frames resampled for each CG call, in
  /// (0, 1]. The shard's budget is max(1, round(fraction x frames)): that
  /// many frames under cross-entropy, and whole utterances until at least
  /// that many frames under the sequence criterion.
  double curvature_fraction = 0.02;
  /// Transition model for the sequence criterion (ignored for CE).
  nn::TransitionModel transitions;
  util::ThreadPool* pool = nullptr;
};

class SpeechWorkload : public Workload {
 public:
  /// `shard_id` decorrelates curvature sampling across workers while
  /// keeping it deterministic in (seed, shard_id) — the master never has
  /// to ship sample indices over the wire. Throws std::invalid_argument
  /// unless options.curvature_fraction is in (0, 1].
  SpeechWorkload(nn::Network net, speech::Dataset train,
                 speech::Dataset heldout, std::size_t shard_id,
                 SpeechWorkloadOptions options);

  std::size_t num_params() const override { return net_.num_params(); }
  std::size_t train_frames() const override { return train_.num_frames(); }

  /// One segment per layer ([W_l, b_l]), so compressed aggregation keeps
  /// one error-feedback state per layer.
  std::vector<std::size_t> segment_bounds() const override;

  void set_params(std::span<const float> theta) override;
  nn::BatchLoss gradient(std::span<float> grad_accum) override;
  nn::BatchLoss gradient_with_squares(
      std::span<float> grad_accum, std::span<float> grad_sq_accum) override;
  void prepare_curvature(std::uint64_t seed) override;
  std::size_t curvature_frames() const override { return curvature_frames_; }
  /// Throws std::invalid_argument unless `fraction` is in (0, 1].
  void set_curvature_fraction(double fraction) override;
  void curvature_product(std::span<const float> v,
                         std::span<float> out_accum) override;
  nn::BatchLoss heldout_loss() override;

  /// The current curvature sample, one entry per packed block: the
  /// training rows the block holds, in block row order. Valid until the
  /// next prepare_curvature.
  std::vector<std::span<const std::size_t>> curvature_blocks() const;

  const nn::Network& network() const { return net_; }

 private:
  // The working set one gradient or scoring pass reuses across all its
  // batches: the forward cache, a rows x output_dim buffer (the loss delta
  // while training, the logits while scoring) and a ping-pong scratch (the
  // deltas backprop propagates, or the hidden activations while scoring).
  // Grown to the pass's largest batch, never allocated per batch, and freed
  // with the pass, so it is not resident during the curvature products.
  struct PassBuffers {
    nn::ForwardCache cache;
    blas::Matrix<float> out;
    nn::ForwardScratch scratch;

    /// The first `rows` rows of `out`, grown (never shrunk) to fit.
    blas::MatrixView<float> out_rows(std::size_t rows, std::size_t cols);
  };

  using RowRange = std::pair<std::size_t, std::size_t>;

  // One packed block of the curvature sample. Under the sequence criterion
  // an utterance never straddles blocks, so its gamma rows are contiguous.
  struct CurvatureBatch {
    std::vector<std::size_t> rows;  // training rows gathered into x
    blas::Matrix<float> x;          // the sampled rows of train_.x
    nn::ForwardCache cache;         // activations at params_version_
    blas::Matrix<float> probs;      // softmax probs (CE) or gamma (seq)
  };

  // grad_sq may be empty (squares disabled).
  nn::BatchLoss gradient_impl(std::span<float> grad, std::span<float> grad_sq);
  nn::BatchLoss gradient_ce(std::span<float> grad, std::span<float> grad_sq);
  nn::BatchLoss gradient_sequence(std::span<float> grad,
                                  std::span<float> grad_sq);
  nn::BatchLoss loss_only(const speech::Dataset& ds);
  /// The sampled training row ranges [begin, end): single frames under
  /// CE, whole utterances under the sequence criterion. Sorted.
  std::vector<RowRange> sample_curvature_rows(std::uint64_t seed) const;
  /// Gather `ranges` into one block and cache its forward pass and output
  /// distribution.
  CurvatureBatch pack_curvature_block(std::span<const RowRange> ranges) const;
  /// Accumulate scratch into grad (and scratch^2 into grad_sq), then zero
  /// scratch for the next batch.
  void fold_batch(std::span<float> grad, std::span<float> grad_sq);

  nn::Network net_;
  speech::Dataset train_;
  speech::Dataset heldout_;
  std::size_t shard_id_;
  SpeechWorkloadOptions options_;

  std::uint64_t params_version_ = 0;
  std::uint64_t curvature_version_ = 0;  // params_version_ when cached
  std::vector<CurvatureBatch> curvature_;
  std::size_t curvature_frames_ = 0;
  std::vector<float> batch_scratch_;  // per-batch gradient staging
};

}  // namespace bgqhf::hf
