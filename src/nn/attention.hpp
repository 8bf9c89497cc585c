#pragma once

/// \file attention.hpp
/// Multi-head self-attention and the Transformer encoder block used by the
/// BERT stand-in workload.

#include "nn/layers.hpp"

namespace avgpipe::nn {

/// Multi-head scaled-dot-product self-attention over [B,S,D]: the packed
/// q/k/v projection, one tensor::multi_head_attention node, the output
/// projection.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(std::size_t d_model, std::size_t num_heads, Rng& rng,
                         double dropout_p = 0.0);

  Variable forward(const Variable& x) override;
  std::vector<Variable> parameters() override;
  std::string name() const override;

 private:
  std::size_t d_model_, heads_;
  Linear qkv_;   ///< D -> 3D packed projection
  Linear proj_;  ///< D -> D output projection
  double attn_dropout_p_;
  Rng attn_rng_;  ///< dropout stream on the attention weights
};

/// Pre-LN Transformer encoder block:
///   x = x + MHSA(LN(x));  x = x + FFN(LN(x))
/// with FFN = Linear(D, d_ff) ∘ GELU ∘ Linear(d_ff, D).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(std::size_t d_model, std::size_t num_heads,
                          std::size_t d_ff, Rng& rng, double dropout_p = 0.0);

  Variable forward(const Variable& x) override;
  std::vector<Variable> parameters() override;
  std::string name() const override;
  void set_training(bool training) override;

 private:
  std::size_t d_model_;
  LayerNorm ln1_, ln2_;
  MultiHeadSelfAttention attn_;
  Linear ff1_, ff2_;
  Dropout dropout_;
};

}  // namespace avgpipe::nn
