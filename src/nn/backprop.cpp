#include "nn/backprop.h"

#include <stdexcept>

#include "blas/gemm.h"
#include "blas/level1.h"

namespace bgqhf::nn {

void accumulate_gradient(const Network& net, blas::ConstMatrixView<float> x,
                         const ForwardCache& cache,
                         blas::ConstMatrixView<float> delta_out,
                         std::span<float> grad, ForwardScratch& scratch,
                         util::ThreadPool* pool) {
  const std::size_t L = net.num_layers();
  if (cache.acts.size() != L) {
    throw std::invalid_argument("accumulate_gradient: bad cache");
  }
  blas::ConstMatrixView<float> delta = delta_out;
  for (std::size_t l = L; l-- > 0;) {
    auto gl = net.layer_params(grad, l);
    const blas::ConstMatrixView<float> a_prev =
        l == 0 ? x : cache.act(l - 1);

    // db_l += column sums of delta_l. Only the loss-layer delta (handed in
    // by the caller) needs a standalone sweep; every propagated delta gets
    // its column reduction fused into the GEMM epilogue below.
    if (l == L - 1) blas::add_col_sums<float>(delta, gl.b);

    // dW_l += delta^T (N x out) * a_prev (N x in)  -> out x in
    blas::gemm<float>(blas::Trans::kYes, blas::Trans::kNo, 1.0f, delta,
                      a_prev, 1.0f, gl.w, pool);
    if (l == 0) break;

    // delta_{l-1} = (delta * W_l) .* act'(a_{l-1}), with the derivative
    // mask and db_{l-1} += colsum(delta_{l-1}) applied tile-by-tile in the
    // GEMM epilogue instead of two extra sweeps over the delta matrix.
    auto wl = net.layer(l);
    auto gprev = net.layer_params(grad, l - 1);
    // Propagated deltas ping-pong between the scratch's two buffers.
    const blas::MatrixView<float> prev_delta =
        scratch.ensure(l % 2 == 1, delta.rows, wl.w.cols);
    blas::GemmEpilogue ep;
    ep.deriv_aux = cache.act(l - 1);
    ep.deriv_act = to_epilogue(net.layers()[l - 1].act);
    ep.col_sums = gprev.b.data();
    blas::gemm_fused(blas::Trans::kNo, blas::Trans::kNo, 1.0f, delta,
                     wl.w, 0.0f, prev_delta, ep, pool);
    delta = prev_delta;
  }
}

void accumulate_gradient(const Network& net, blas::ConstMatrixView<float> x,
                         const ForwardCache& cache,
                         blas::Matrix<float>&& delta_out,
                         std::span<float> grad, util::ThreadPool* pool) {
  const blas::Matrix<float> delta = std::move(delta_out);
  ForwardScratch scratch;
  accumulate_gradient(net, x, cache, delta.view(), grad, scratch, pool);
}

}  // namespace bgqhf::nn
