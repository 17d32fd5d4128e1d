// Reverse-mode gradient accumulation.
//
// Given the forward cache and the loss derivative at the output logits,
// accumulate d(sum loss)/d(theta) into a flat gradient vector. The heavy
// lifting is two GEMMs per layer (dW = delta^T * a_prev, da_prev =
// delta * W), which is where the paper's tuned SGEMM earns its keep.
#pragma once

#include <functional>
#include <span>

#include "blas/matrix.h"
#include "nn/network.h"
#include "util/thread_pool.h"

namespace bgqhf::nn {

/// grad += d(sum loss)/d(theta) for this batch.
///   x          input batch (N x input_dim), same one passed to forward()
///   cache      activations from Network::forward on x
///   delta_out  d(sum loss)/d(logits), N x output_dim
///   grad       flat vector, Network parameter layout
///   scratch    holds the deltas propagated to the hidden layers, so a
///              long-lived one makes steady-state batches allocate nothing
///   layer_done fired with l right after layer l's [W_l, b_l] slice of
///              `grad` receives its final write for this batch (b_l lands
///              one step earlier via the fused epilogue); descending layer
///              order. Lets the aggregation layer ship layer l while the
///              GEMMs for layers below are still running.
void accumulate_gradient(const Network& net, blas::ConstMatrixView<float> x,
                         const ForwardCache& cache,
                         blas::ConstMatrixView<float> delta_out,
                         std::span<float> grad, ForwardScratch& scratch,
                         util::ThreadPool* pool = nullptr,
                         const std::function<void(std::size_t)>& layer_done =
                             {});

/// The same with a call-local scratch; `delta_out` is consumed.
void accumulate_gradient(const Network& net, blas::ConstMatrixView<float> x,
                         const ForwardCache& cache,
                         blas::Matrix<float>&& delta_out,
                         std::span<float> grad,
                         util::ThreadPool* pool = nullptr,
                         const std::function<void(std::size_t)>& layer_done =
                             {});

}  // namespace bgqhf::nn
