#include "nn/rbm.h"

#include <stdexcept>

#include "blas/gemm.h"
#include "blas/sigmoid.h"

namespace bgqhf::nn {

namespace {

void sigmoid_inplace(blas::MatrixView<float> m) {
  for (std::size_t r = 0; r < m.rows; ++r) {
    for (std::size_t c = 0; c < m.cols; ++c) m(r, c) = blas::sigmoid(m(r, c));
  }
}

void add_row_bias(blas::MatrixView<float> m, std::span<const float> bias) {
  for (std::size_t r = 0; r < m.rows; ++r) {
    for (std::size_t c = 0; c < m.cols; ++c) m(r, c) += bias[c];
  }
}

}  // namespace

Rbm::Rbm(std::size_t visible, std::size_t hidden, std::uint64_t init_seed)
    : visible_(visible),
      hidden_(hidden),
      w_(hidden, visible),
      hb_(hidden, 0.0f),
      vb_(visible, 0.0f) {
  if (visible == 0 || hidden == 0) {
    throw std::invalid_argument("Rbm: empty layer");
  }
  util::Rng rng(init_seed);
  for (std::size_t i = 0; i < w_.size(); ++i) {
    w_.data()[i] = static_cast<float>(rng.normal(0.0, 0.01));
  }
}

blas::Matrix<float> Rbm::hidden_probs(blas::ConstMatrixView<float> v) const {
  if (v.cols != visible_) {
    throw std::invalid_argument("Rbm::hidden_probs: dimension mismatch");
  }
  blas::Matrix<float> h(v.rows, hidden_);
  blas::gemm<float>(blas::Trans::kNo, blas::Trans::kYes, 1.0f, v, w_.view(),
                    0.0f, h.view());
  add_row_bias(h.view(), hb_);
  sigmoid_inplace(h.view());
  return h;
}

blas::Matrix<float> Rbm::visible_means(blas::ConstMatrixView<float> h) const {
  if (h.cols != hidden_) {
    throw std::invalid_argument("Rbm::visible_means: dimension mismatch");
  }
  blas::Matrix<float> v(h.rows, visible_);
  blas::gemm<float>(blas::Trans::kNo, blas::Trans::kNo, 1.0f, h, w_.view(),
                    0.0f, v.view());
  add_row_bias(v.view(), vb_);
  return v;  // Gaussian visibles: mean == pre-activation; the binary case
             // applies sigmoid below where needed.
}

double Rbm::train_epoch(blas::ConstMatrixView<float> data,
                        const RbmOptions& options, util::Rng& rng) {
  const std::size_t frames = data.rows;
  double err_sum = 0.0;
  std::size_t err_count = 0;

  for (std::size_t begin = 0; begin < frames;
       begin += options.batch_frames) {
    const std::size_t count = std::min(options.batch_frames, frames - begin);
    const auto v0 = data.block(begin, 0, count, visible_);

    // Positive phase.
    blas::Matrix<float> h0 = hidden_probs(v0);
    // Sample binary hidden states.
    blas::Matrix<float> h_sample(count, hidden_);
    for (std::size_t i = 0; i < h_sample.size(); ++i) {
      h_sample.data()[i] =
          rng.next_double() < h0.data()[i] ? 1.0f : 0.0f;
    }
    // Negative phase (one Gibbs step).
    blas::Matrix<float> v1 = visible_means(h_sample.view());
    if (!options.gaussian_visible) sigmoid_inplace(v1.view());
    blas::Matrix<float> h1 = hidden_probs(v1.view());

    // dW = (h0^T v0 - h1^T v1) / count
    const float lr = static_cast<float>(options.learning_rate /
                                        static_cast<double>(count));
    blas::gemm<float>(blas::Trans::kYes, blas::Trans::kNo, lr, h0.view(), v0,
                      1.0f, w_.view());
    blas::gemm<float>(blas::Trans::kYes, blas::Trans::kNo, -lr, h1.view(),
                      v1.view(), 1.0f, w_.view());
    for (std::size_t r = 0; r < count; ++r) {
      for (std::size_t c = 0; c < hidden_; ++c) {
        hb_[c] += lr * (h0(r, c) - h1(r, c));
      }
      for (std::size_t c = 0; c < visible_; ++c) {
        vb_[c] += lr * (v0(r, c) - v1(r, c));
        const double d = static_cast<double>(v0(r, c)) - v1(r, c);
        err_sum += d * d;
        ++err_count;
      }
    }
  }
  return err_count == 0 ? 0.0 : err_sum / static_cast<double>(err_count);
}

std::vector<double> Rbm::train(blas::ConstMatrixView<float> data,
                               const RbmOptions& options) {
  util::Rng rng(options.seed);
  std::vector<double> errors;
  errors.reserve(options.epochs);
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    errors.push_back(train_epoch(data, options, rng));
  }
  return errors;
}

Network rbm_pretrain_network(blas::ConstMatrixView<float> data,
                             const std::vector<std::size_t>& hidden,
                             std::size_t output_dim,
                             const RbmOptions& options) {
  if (hidden.empty()) {
    throw std::invalid_argument("rbm_pretrain_network: no hidden layers");
  }
  Network net = Network::mlp(data.cols, hidden, output_dim);
  util::Rng init_rng(options.seed ^ 0xF00DULL);
  net.init_glorot(init_rng);  // output layer keeps this init

  blas::Matrix<float> layer_data(data.rows, data.cols);
  for (std::size_t r = 0; r < data.rows; ++r) {
    for (std::size_t c = 0; c < data.cols; ++c) {
      layer_data(r, c) = data(r, c);
    }
  }

  for (std::size_t l = 0; l < hidden.size(); ++l) {
    Rbm rbm(layer_data.cols(), hidden[l], options.seed + l);
    RbmOptions layer_options = options;
    layer_options.gaussian_visible = (l == 0) && options.gaussian_visible;
    rbm.train(layer_data.view(), layer_options);

    // Copy W / hidden bias into the MLP's layer l.
    auto lp = net.layer(l);
    for (std::size_t r = 0; r < lp.w.rows; ++r) {
      for (std::size_t c = 0; c < lp.w.cols; ++c) {
        lp.w(r, c) = rbm.weights()(r, c);
      }
    }
    for (std::size_t i = 0; i < lp.b.size(); ++i) {
      lp.b[i] = rbm.hidden_bias()[i];
    }

    // Propagate: this layer's hidden probabilities feed the next RBM.
    layer_data = rbm.hidden_probs(layer_data.view());
  }
  return net;
}

}  // namespace bgqhf::nn
