// Activation functions and their derivatives.
//
// Derivatives are expressed in terms of the *activation output* (not the
// pre-activation), which is what backprop and the R-operator have in hand
// from the forward cache.
#pragma once

#include <string>

#include "blas/epilogue.h"
#include "blas/matrix.h"

namespace bgqhf::nn {

enum class Activation { kSigmoid, kTanh, kReLU, kLinear };

std::string to_string(Activation a);

/// Map onto the fused GEMM epilogue's activation enum (kLinear -> kNone).
/// The epilogue applies the exact same scalar formulas as
/// apply_activation / multiply_by_derivative below, so fused and unfused
/// paths agree bitwise.
blas::EpilogueAct to_epilogue(Activation a);

/// In-place elementwise activation (sigmoid is blas::sigmoid).
void apply_activation(Activation act, blas::MatrixView<float> z);

/// In-place: m(i,j) *= act'(z) expressed via the activation output a(i,j).
/// (sigmoid: a(1-a); tanh: 1-a^2; relu: [a>0]; linear: 1)
void multiply_by_derivative(Activation act, blas::ConstMatrixView<float> a,
                            blas::MatrixView<float> m);

}  // namespace bgqhf::nn
