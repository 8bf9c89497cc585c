#pragma once

/// \file layers.hpp
/// Basic layers: Linear, Embedding, activations, LayerNorm, Dropout,
/// DropConnect (the AWD-LSTM regulariser), and sequence pooling.

#include "nn/module.hpp"

namespace avgpipe::nn {

/// Affine layer y = xW + b. Accepts [.., in] inputs (leading dims flattened).
class Linear : public Module {
 public:
  Linear(std::size_t in, std::size_t out, Rng& rng, bool bias = true);

  Variable forward(const Variable& x) override;
  std::vector<Variable> parameters() override;
  std::string name() const override;

  Variable& weight() { return weight_; }
  Variable& bias() { return bias_; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 protected:
  std::size_t in_, out_;
  bool has_bias_;
  Variable weight_;  ///< [in, out]
  Variable bias_;    ///< [out]; undefined without bias
};

/// Linear with DropConnect on the weight matrix (Merity et al., AWD-LSTM):
/// during training each weight is zeroed with probability `p` and the rest
/// scaled by 1/(1-p).
class DropConnectLinear : public Linear {
 public:
  DropConnectLinear(std::size_t in, std::size_t out, double p, Rng& rng,
                    bool bias = true);

  Variable forward(const Variable& x) override;
  std::string name() const override;

 private:
  double p_;
  Rng rng_;
};

/// Token embedding: input is a [B,S] (or [N]) tensor of integer ids stored
/// as Scalars; output appends an embedding dim: [B,S,D] (or [N,D]).
class Embedding : public Module {
 public:
  Embedding(std::size_t vocab, std::size_t dim, Rng& rng);

  Variable forward(const Variable& ids) override;
  std::vector<Variable> parameters() override;
  std::string name() const override;

  Variable& weight() { return weight_; }

 private:
  std::size_t vocab_, dim_;
  Variable weight_;  ///< [vocab, dim]
};

/// Stateless activation wrappers.
class ReLU : public Module {
 public:
  Variable forward(const Variable& x) override { return tensor::relu(x); }
  std::string name() const override { return "ReLU"; }
};

class Tanh : public Module {
 public:
  Variable forward(const Variable& x) override { return tensor::tanh_op(x); }
  std::string name() const override { return "Tanh"; }
};

class GELU : public Module {
 public:
  Variable forward(const Variable& x) override { return tensor::gelu(x); }
  std::string name() const override { return "GELU"; }
};

/// LayerNorm over the last dimension with learned affine parameters.
class LayerNorm : public Module {
 public:
  LayerNorm(std::size_t dim, Scalar eps = 1e-5);

  Variable forward(const Variable& x) override;
  std::vector<Variable> parameters() override;
  std::string name() const override;

 private:
  std::size_t dim_;
  Scalar eps_;
  Variable gamma_, beta_;
};

/// Inverted dropout with its own deterministic stream.
class Dropout : public Module {
 public:
  Dropout(double p, Rng& rng);

  Variable forward(const Variable& x) override;
  std::string name() const override;

 private:
  double p_;
  Rng rng_;
};

/// Mean over the sequence dimension: [B,S,D] -> [B,D].
class MeanPoolSeq : public Module {
 public:
  Variable forward(const Variable& x) override;
  std::string name() const override { return "MeanPoolSeq"; }
};

/// Selects the last position of a sequence: [B,S,D] -> [B,D]. Used by
/// sequence classifiers over recurrent outputs.
class LastStep : public Module {
 public:
  Variable forward(const Variable& x) override;
  std::string name() const override { return "LastStep"; }
};

}  // namespace avgpipe::nn
