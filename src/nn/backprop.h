// Reverse-mode gradient accumulation.
//
// Given the forward cache and the loss derivative at the output logits,
// accumulate d(sum loss)/d(theta) into a flat gradient vector. The heavy
// lifting is two GEMMs per layer (dW = delta^T * a_prev, da_prev =
// delta * W), which is where the paper's tuned SGEMM earns its keep.
#pragma once

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
void accumulate_gradient(const Network& net, blas::ConstMatrixView<float> x,
                         const ForwardCache& cache,
                         blas::ConstMatrixView<float> delta_out,
                         std::span<float> grad, ForwardScratch& scratch,
                         util::ThreadPool* pool = nullptr);

/// The same with a call-local scratch; `delta_out` is consumed.
void accumulate_gradient(const Network& net, blas::ConstMatrixView<float> x,
                         const ForwardCache& cache,
                         blas::Matrix<float>&& delta_out,
                         std::span<float> grad,
                         util::ThreadPool* pool = nullptr);

}  // namespace bgqhf::nn
