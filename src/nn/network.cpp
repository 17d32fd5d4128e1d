#include "nn/network.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "blas/gemm.h"

namespace bgqhf::nn {

Network::Network(std::vector<LayerSpec> layers) : layers_(std::move(layers)) {
  if (layers_.empty()) {
    throw std::invalid_argument("Network: needs at least one layer");
  }
  std::size_t offset = 0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    if (l > 0 && layers_[l].in != layers_[l - 1].out) {
      throw std::invalid_argument("Network: layer dimension mismatch");
    }
    w_offsets_.push_back(offset);
    offset += layers_[l].out * layers_[l].in;
    b_offsets_.push_back(offset);
    offset += layers_[l].out;
  }
  params_.assign(offset, 0.0f);
}

Network Network::mlp(std::size_t input_dim,
                     const std::vector<std::size_t>& hidden,
                     std::size_t output_dim, Activation hidden_act) {
  std::vector<LayerSpec> specs;
  std::size_t in = input_dim;
  for (const std::size_t h : hidden) {
    specs.push_back(LayerSpec{in, h, hidden_act});
    in = h;
  }
  specs.push_back(LayerSpec{in, output_dim, Activation::kLinear});
  return Network(std::move(specs));
}

void Network::set_params(std::span<const float> theta) {
  if (theta.size() != params_.size()) {
    throw std::invalid_argument("set_params: size mismatch");
  }
  std::copy(theta.begin(), theta.end(), params_.begin());
}

LayerParams Network::layer_params(std::span<float> theta,
                                  std::size_t l) const {
  if (theta.size() != params_.size()) {
    throw std::invalid_argument("layer_params: flat vector size mismatch");
  }
  const auto& spec = layers_.at(l);
  return LayerParams{
      blas::MatrixView<float>{theta.data() + w_offsets_[l], spec.out, spec.in,
                              spec.in},
      theta.subspan(b_offsets_[l], spec.out)};
}

ConstLayerParams Network::layer_params(std::span<const float> theta,
                                       std::size_t l) const {
  if (theta.size() != params_.size()) {
    throw std::invalid_argument("layer_params: flat vector size mismatch");
  }
  const auto& spec = layers_.at(l);
  return ConstLayerParams{
      blas::ConstMatrixView<float>{theta.data() + w_offsets_[l], spec.out,
                                   spec.in, spec.in},
      theta.subspan(b_offsets_[l], spec.out)};
}

void Network::init_glorot(util::Rng& rng) {
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    auto lp = layer(l);
    const double limit =
        std::sqrt(6.0 / static_cast<double>(layers_[l].in + layers_[l].out));
    for (std::size_t r = 0; r < lp.w.rows; ++r) {
      for (std::size_t c = 0; c < lp.w.cols; ++c) {
        lp.w(r, c) = static_cast<float>(rng.uniform(-limit, limit));
      }
    }
    for (auto& b : lp.b) b = 0.0f;
  }
}

namespace {

/// out = act(in * W^T + b), for one layer. Bias add and activation are
/// fused into the GEMM's last k-block tile updates (one fewer full sweep
/// over the activation matrix per layer).
void affine_forward(blas::ConstMatrixView<float> in, ConstLayerParams lp,
                    Activation act, blas::MatrixView<float> out,
                    util::ThreadPool* pool) {
  blas::GemmEpilogue<float> ep;
  ep.bias = lp.b.data();
  ep.act = to_epilogue(act);
  blas::gemm_fused<float>(blas::Trans::kNo, blas::Trans::kYes, 1.0f, in, lp.w,
                          0.0f, out, ep, pool);
}

}  // namespace

ForwardCache Network::forward(blas::ConstMatrixView<float> x,
                              util::ThreadPool* pool) const {
  ForwardCache cache;
  forward_into(x, cache, pool);
  return cache;
}

void Network::forward_into(blas::ConstMatrixView<float> x, ForwardCache& cache,
                           util::ThreadPool* pool) const {
  if (x.cols != input_dim()) {
    throw std::invalid_argument("forward: input dimension mismatch");
  }
  cache.acts.resize(layers_.size());
  cache.rows = x.rows;
  blas::ConstMatrixView<float> in = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    blas::Matrix<float>& m = cache.acts[l];
    if (m.rows() < x.rows || m.cols() != layers_[l].out) {
      m = blas::Matrix<float>(x.rows, layers_[l].out);
    }
    const blas::MatrixView<float> out = m.view().block(0, 0, x.rows, m.cols());
    affine_forward(in, layer(l), layers_[l].act, out, pool);
    in = out;
  }
}

blas::Matrix<float> Network::forward_logits(blas::ConstMatrixView<float> x,
                                            util::ThreadPool* pool) const {
  if (x.cols != input_dim()) {
    throw std::invalid_argument("forward_logits: input dimension mismatch");
  }
  blas::Matrix<float> cur;
  blas::ConstMatrixView<float> in = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    blas::Matrix<float> out(x.rows, layers_[l].out);
    affine_forward(in, layer(l), layers_[l].act, out.view(), pool);
    cur = std::move(out);
    in = cur.view();
  }
  return cur;
}

blas::MatrixView<float> ForwardScratch::ensure(bool which, std::size_t rows,
                                               std::size_t cols) {
  blas::Matrix<float>& m = which ? pong : ping;
  if (m.rows() < rows || m.cols() < cols) {
    m = blas::Matrix<float>(std::max(rows, m.rows()),
                            std::max(cols, m.cols()));
  }
  return m.view().block(0, 0, rows, cols);
}

void Network::forward_logits_into(blas::ConstMatrixView<float> x,
                                  blas::MatrixView<float> out,
                                  ForwardScratch& scratch,
                                  util::ThreadPool* pool) const {
  if (x.cols != input_dim()) {
    throw std::invalid_argument(
        "forward_logits_into: input dimension mismatch");
  }
  if (out.rows != x.rows || out.cols != output_dim()) {
    throw std::invalid_argument(
        "forward_logits_into: output shape mismatch");
  }
  blas::ConstMatrixView<float> in = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const bool last = l + 1 == layers_.size();
    const blas::MatrixView<float> dst =
        last ? out : scratch.ensure(l % 2 == 1, x.rows, layers_[l].out);
    affine_forward(in, layer(l), layers_[l].act, dst, pool);
    in = dst;
  }
}

}  // namespace bgqhf::nn
