// Feed-forward deep neural network with flat parameter storage.
//
// The network the paper trains: a stack of affine+sigmoid hidden layers and
// a linear output layer whose logits feed a softmax cross-entropy (or the
// sequence criterion). Parameters live in one contiguous vector<float> so
// the HF optimizer, CG, and MPI reductions all operate on flat vectors —
// exactly how the original implementation ships weights through MPI_Bcast.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "blas/matrix.h"
#include "nn/activations.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace bgqhf::nn {

struct LayerSpec {
  std::size_t in = 0;
  std::size_t out = 0;
  Activation act = Activation::kSigmoid;
};

/// Per-layer views into the flat parameter vector.
struct LayerParams {
  blas::MatrixView<float> w;  // out x in
  std::span<float> b;         // out
};
struct ConstLayerParams {
  blas::ConstMatrixView<float> w;
  std::span<const float> b;
};

/// Forward-pass cache: post-activation output of every layer; the last
/// entry holds the output logits (linear). Input is not stored. Layer l's
/// activations are the first `rows` rows of acts[l]: a cache reused across
/// batches (Network::forward_into) keeps matrices sized for the largest
/// batch it has seen.
struct ForwardCache {
  std::vector<blas::Matrix<float>> acts;
  std::size_t rows = 0;

  blas::ConstMatrixView<float> act(std::size_t l) const {
    return acts[l].view().block(0, 0, rows, acts[l].cols());
  }
  blas::ConstMatrixView<float> logits() const { return act(acts.size() - 1); }
};

/// Reusable activation scratch for forward_logits_into: two ping-pong
/// buffers that grow monotonically to the widest layer and largest batch
/// seen, so a long-lived scorer (a serving worker) allocates nothing in
/// steady state. Not thread-safe; keep one per scoring thread.
struct ForwardScratch {
  blas::Matrix<float> ping;
  blas::Matrix<float> pong;

  /// View of `which ? pong : ping` with at least rows x cols, growing the
  /// backing matrix if needed (values are unspecified on entry).
  blas::MatrixView<float> ensure(bool which, std::size_t rows,
                                 std::size_t cols);
};

class Network {
 public:
  Network() = default;
  explicit Network(std::vector<LayerSpec> layers);

  /// Convenience builder: input -> hidden... -> output(linear).
  static Network mlp(std::size_t input_dim,
                     const std::vector<std::size_t>& hidden,
                     std::size_t output_dim,
                     Activation hidden_act = Activation::kSigmoid);

  const std::vector<LayerSpec>& layers() const { return layers_; }
  std::size_t num_layers() const { return layers_.size(); }
  std::size_t input_dim() const { return layers_.front().in; }
  std::size_t output_dim() const { return layers_.back().out; }
  std::size_t num_params() const { return params_.size(); }

  std::span<float> params() { return params_; }
  std::span<const float> params() const { return params_; }
  void set_params(std::span<const float> theta);

  /// Views into a flat vector laid out like this network's parameters.
  LayerParams layer_params(std::span<float> theta, std::size_t l) const;
  ConstLayerParams layer_params(std::span<const float> theta,
                                std::size_t l) const;
  LayerParams layer(std::size_t l) { return layer_params(params(), l); }
  ConstLayerParams layer(std::size_t l) const {
    return layer_params(params(), l);
  }

  /// Glorot/Xavier initialization (paper Ref. [3]); deterministic in rng.
  void init_glorot(util::Rng& rng);

  /// Forward pass over a batch (rows = frames). Returns the full
  /// activation cache needed by backprop / R-op.
  ForwardCache forward(blas::ConstMatrixView<float> x,
                       util::ThreadPool* pool = nullptr) const;

  /// forward() into a caller-owned cache, so a cache reused across
  /// batches allocates only when a batch outgrows it. Bitwise identical to
  /// forward().
  void forward_into(blas::ConstMatrixView<float> x, ForwardCache& cache,
                    util::ThreadPool* pool = nullptr) const;

  /// Forward pass discarding hidden activations (loss evaluation only).
  blas::Matrix<float> forward_logits(blas::ConstMatrixView<float> x,
                                     util::ThreadPool* pool = nullptr) const;

  /// Forward pass writing the logits into caller-owned `out`
  /// (x.rows x output_dim) through reusable `scratch` — the serving hot
  /// path: bitwise identical to forward_logits, zero allocations once the
  /// scratch has warmed up. Hidden activations are not retained.
  void forward_logits_into(blas::ConstMatrixView<float> x,
                           blas::MatrixView<float> out,
                           ForwardScratch& scratch,
                           util::ThreadPool* pool = nullptr) const;

 private:
  std::vector<LayerSpec> layers_;
  std::vector<std::size_t> w_offsets_;  // offset of W_l in flat storage
  std::vector<std::size_t> b_offsets_;
  std::vector<float> params_;
};

}  // namespace bgqhf::nn
