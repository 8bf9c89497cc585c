#pragma once

/// \file ops.hpp
/// Differentiable operations over `Variable`, plus a few detached helpers.
///
/// Every op builds the forward value eagerly and registers a backward closure
/// via `Variable::make_op`. Shapes follow row-major conventions; "rows"
/// always means all leading dimensions flattened and "cols" the last
/// dimension, so 2-D ops apply unchanged to [B, S, C] activations.

#include <vector>

#include "tensor/autograd.hpp"
#include "tensor/kernels.hpp"

namespace avgpipe::tensor {

// -- elementwise --------------------------------------------------------------

Variable add(const Variable& a, const Variable& b);   ///< same shape
Variable sub(const Variable& a, const Variable& b);   ///< same shape
Variable mul(const Variable& a, const Variable& b);   ///< same shape (Hadamard)
Variable neg(const Variable& a);
Variable scale(const Variable& a, Scalar s);
/// x + bias where bias has shape [C] and x's last dim is C.
Variable add_bias(const Variable& x, const Variable& bias);

// In-place variants (trailing underscore, torch-style): they overwrite the
// value of `x` and return a node whose value aliases it, saving one
// allocation + copy pass per call. Only legal when the caller owns `x` as a
// freshly produced op output whose producer's backward does not read its own
// output value (matmul/add qualify; activations and softmax do not).
// Applying one to a grad-requiring leaf (i.e. a parameter) is checked fatal.
Variable add_bias_(const Variable& x, const Variable& bias);

// -- activations --------------------------------------------------------------

Variable relu(const Variable& x);
Variable tanh_op(const Variable& x);
Variable sigmoid(const Variable& x);
/// Gaussian error linear unit (tanh approximation), used by BERT blocks.
Variable gelu(const Variable& x);

/// In-place activations (same ownership rules as add_bias_).
Variable relu_(const Variable& x);
Variable tanh_op_(const Variable& x);
Variable sigmoid_(const Variable& x);

// -- linear algebra -----------------------------------------------------------

/// [M,K] x [K,N] -> [M,N]: `linear` without a bias.
Variable matmul(const Variable& a, const Variable& b);
/// Affine map as one node: x [.., in] times weight [in, out] plus bias [out]
/// -> [.., out] (leading dims flattened). The bias is added to each row
/// after the GEMM; an undefined `bias` means none. Backward gives dX, dW and
/// db (the column sums of dY).
Variable linear(const Variable& x, const Variable& weight,
                const Variable& bias);

// -- attention ----------------------------------------------------------------

/// Multi-head scaled-dot-product self-attention as one node: the packed
/// projection qkv [B, S, 3D] (q, k, v side by side in each row, head h in
/// columns [h*Dh, (h+1)*Dh) of its part) -> context [B, S, D]. Per (batch,
/// head): softmax(q k^T / sqrt(Dh)), inverted dropout with rate `p` on the
/// weights when `training` (mask drawn from `rng` as `dropout` does), then
/// times v. The GEMMs read q/k/v and write the context and the qkv gradient
/// in place through leading dimensions, so no head is ever copied out.
Variable multi_head_attention(const Variable& qkv, std::size_t heads, double p,
                              Rng& rng, bool training);

// -- shape --------------------------------------------------------------------

/// View with new shape (no copy; grad flows through as a reshape).
Variable reshape(const Variable& x, Shape shape);
/// Columns [lo, hi) of a 2-D tensor.
Variable slice_cols(const Variable& x, std::size_t lo, std::size_t hi);
/// Rows [lo, hi) of the flattened-leading-dims view.
Variable slice_rows(const Variable& x, std::size_t lo, std::size_t hi);
/// Concatenate 2-D tensors along rows (dim 0).
Variable concat_rows(const std::vector<Variable>& xs);

// -- normalisation / regularisation -------------------------------------------

/// Row-wise softmax over the last dimension.
Variable softmax_rows(const Variable& x);
/// LayerNorm over the last dimension with affine parameters gamma/beta [C].
Variable layer_norm(const Variable& x, const Variable& gamma,
                    const Variable& beta, Scalar eps = 1e-5);
/// Inverted dropout; identity when !training or p == 0.
Variable dropout(const Variable& x, double p, Rng& rng, bool training);
/// The inverted-dropout mask `dropout` applies: each entry, in order, is
/// 1/(1-p) with probability 1-p (one Bernoulli draw from `rng`), else 0.
Tensor dropout_mask(Shape shape, double p, Rng& rng);

// -- lookups ------------------------------------------------------------------

/// weight[V,D] gathered at `indices` -> [N,D].
Variable embedding(const Variable& weight, const std::vector<int>& indices);

// -- reductions / losses -------------------------------------------------------

Variable sum_all(const Variable& x);   ///< scalar [1]
Variable mean_all(const Variable& x);  ///< scalar [1]
/// Mean softmax cross-entropy of logits [N,C] against integer targets [N].
Variable softmax_cross_entropy(const Variable& logits,
                               const std::vector<int>& targets);
/// Mean squared error against a constant target.
Variable mse_loss(const Variable& pred, const Tensor& target);

// -- detached helpers (no autograd) --------------------------------------------

/// Row-wise argmax of a [N,C] tensor.
std::vector<int> argmax_rows(const Tensor& logits);
/// Fraction of rows whose argmax equals the target.
double accuracy(const Tensor& logits, const std::vector<int>& targets);
/// Raw GEMM: C (+)= op(A) * op(B); op is optional transpose, and `opts`
/// carries leading dimensions (kernels.hpp).
/// Dispatches to the blocked/parallel kernel above kGemmBlockedThreshold
/// multiply-adds, else the reference loop.
void gemm(const Scalar* a, const Scalar* b, Scalar* c, std::size_t m,
          std::size_t n, std::size_t k, bool trans_a, bool trans_b,
          bool accumulate, const GemmOpts& opts = {});

}  // namespace avgpipe::tensor
