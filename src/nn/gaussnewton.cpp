#include "nn/gaussnewton.h"

#include <stdexcept>

#include "blas/gemm.h"
#include "nn/backprop.h"
#include "nn/loss.h"

namespace bgqhf::nn {

namespace {

/// R-forward pass: returns R{z_L}, the directional derivative of the output
/// logits along v. R{a_0} = 0, and per layer
///   R{z_l} = R{a_{l-1}} W_l^T + a_{l-1} V_l^T + 1 rb_l^T
///   R{a_l} = R{z_l} .* act'(a_l)
blas::Matrix<float> r_forward(const Network& net,
                              blas::ConstMatrixView<float> x,
                              const ForwardCache& cache,
                              std::span<const float> v,
                              util::ThreadPool* pool) {
  const std::size_t L = net.num_layers();
  blas::Matrix<float> r_act;  // R{a_{l-1}}; empty means zero (l == 0)
  blas::Matrix<float> r_z;
  for (std::size_t l = 0; l < L; ++l) {
    auto wl = net.layer(l);
    auto vl = net.layer_params(v, l);
    const blas::ConstMatrixView<float> a_prev =
        l == 0 ? x : cache.act(l - 1);

    // The rb_l broadcast and the act' mask ride the epilogue of whichever
    // GEMM finishes the R{z_l} accumulation (the second one when l > 0).
    blas::GemmEpilogue<float> ep;
    ep.bias = vl.b.data();
    if (l + 1 < L) {
      ep.deriv_aux = cache.act(l);
      ep.deriv_act = to_epilogue(net.layers()[l].act);
    }

    r_z = blas::Matrix<float>(x.rows, net.layers()[l].out);
    if (l == 0) {
      // R{z_0} = x * V_0^T + rb_0
      blas::gemm_fused<float>(blas::Trans::kNo, blas::Trans::kYes, 1.0f,
                              a_prev, vl.w, 0.0f, r_z.view(), ep, pool);
    } else {
      // R{z_l} = a_prev * V_l^T + R{a_{l-1}} * W_l^T + rb_l
      blas::gemm<float>(blas::Trans::kNo, blas::Trans::kYes, 1.0f, a_prev,
                        vl.w, 0.0f, r_z.view(), pool);
      blas::gemm_fused<float>(blas::Trans::kNo, blas::Trans::kYes, 1.0f,
                              r_act.view(), wl.w, 1.0f, r_z.view(), ep, pool);
    }
    if (l + 1 < L) {
      r_act = std::move(r_z);
    }
  }
  // Output layer is linear, so R{z_L} needs no derivative factor.
  return r_z;
}

/// delta(r,:) = p .* u - p * (p^T u) applied row-wise.
void apply_multinomial_hessian(blas::ConstMatrixView<float> probs,
                               blas::MatrixView<float> u) {
  for (std::size_t r = 0; r < u.rows; ++r) {
    double pu = 0.0;
    for (std::size_t c = 0; c < u.cols; ++c) {
      pu += static_cast<double>(probs(r, c)) * u(r, c);
    }
    for (std::size_t c = 0; c < u.cols; ++c) {
      u(r, c) = probs(r, c) * (u(r, c) - static_cast<float>(pu));
    }
  }
}

}  // namespace

void accumulate_gn_product_with_distribution(
    const Network& net, blas::ConstMatrixView<float> x,
    const ForwardCache& cache, blas::ConstMatrixView<float> probs,
    std::span<const float> v, std::span<float> gv, util::ThreadPool* pool) {
  if (probs.rows != x.rows || probs.cols != net.output_dim()) {
    throw std::invalid_argument("gn_product: probs shape mismatch");
  }
  blas::Matrix<float> r_z = r_forward(net, x, cache, v, pool);
  apply_multinomial_hessian(probs, r_z.view());
  accumulate_gradient(net, x, cache, std::move(r_z), gv, pool);
}

void accumulate_gn_product(const Network& net, blas::ConstMatrixView<float> x,
                           const ForwardCache& cache, CurvatureKind kind,
                           std::span<const float> v, std::span<float> gv,
                           util::ThreadPool* pool) {
  blas::Matrix<float> r_z = r_forward(net, x, cache, v, pool);
  switch (kind) {
    case CurvatureKind::kSoftmaxCE: {
      blas::Matrix<float> probs(cache.logits().rows, cache.logits().cols);
      softmax_rows(cache.logits(), probs.view());
      apply_multinomial_hessian(probs.view(), r_z.view());
      break;
    }
    case CurvatureKind::kSquaredError:
      break;  // H_L = I
  }
  accumulate_gradient(net, x, cache, std::move(r_z), gv, pool);
}

}  // namespace bgqhf::nn
