#include "nn/layers.hpp"

#include <cmath>

namespace avgpipe::nn {

namespace {
using tensor::detail::VarData;
}

// -- Linear -------------------------------------------------------------------

Linear::Linear(std::size_t in, std::size_t out, Rng& rng, bool bias)
    : in_(in), out_(out), has_bias_(bias) {
  // Kaiming-ish init: stddev 1/sqrt(in).
  const Scalar stddev = 1.0 / std::sqrt(static_cast<Scalar>(in));
  weight_ = Variable(Tensor::randn({in, out}, rng, stddev),
                     /*requires_grad=*/true);
  if (has_bias_) {
    bias_ = Variable(Tensor::zeros({out}), /*requires_grad=*/true);
  }
}

Variable Linear::forward(const Variable& x) {
  return tensor::linear(x, weight_, bias_);
}

std::vector<Variable> Linear::parameters() {
  if (has_bias_) return {weight_, bias_};
  return {weight_};
}

std::string Linear::name() const {
  return "Linear(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

// -- DropConnectLinear ----------------------------------------------------------

DropConnectLinear::DropConnectLinear(std::size_t in, std::size_t out, double p,
                                     Rng& rng, bool bias)
    : Linear(in, out, rng, bias), p_(p), rng_(rng.fork(0xDC)) {
  AVGPIPE_CHECK(p >= 0.0 && p < 1.0, "DropConnect p must be in [0,1)");
}

Variable DropConnectLinear::forward(const Variable& x) {
  if (!training_ || p_ == 0.0) return Linear::forward(x);
  // Mask the weight matrix, not the activations.
  Variable masked_w = tensor::mul(
      weight_, Variable(tensor::dropout_mask(weight_.shape(), p_, rng_)));
  return tensor::linear(x, masked_w, bias_);
}

std::string DropConnectLinear::name() const {
  return "DropConnectLinear(" + std::to_string(in_) + "->" +
         std::to_string(out_) + ", p=" + std::to_string(p_) + ")";
}

// -- Embedding ------------------------------------------------------------------

Embedding::Embedding(std::size_t vocab, std::size_t dim, Rng& rng)
    : vocab_(vocab), dim_(dim) {
  weight_ = Variable(Tensor::randn({vocab, dim}, rng, 0.1),
                     /*requires_grad=*/true);
}

Variable Embedding::forward(const Variable& ids) {
  const auto iv = ids.value().data();
  std::vector<int> indices(iv.size());
  for (std::size_t i = 0; i < iv.size(); ++i) {
    indices[i] = static_cast<int>(std::llround(iv[i]));
  }
  Variable flat = tensor::embedding(weight_, indices);
  Shape out_shape = ids.shape();
  out_shape.push_back(dim_);
  return tensor::reshape(flat, std::move(out_shape));
}

std::vector<Variable> Embedding::parameters() { return {weight_}; }

std::string Embedding::name() const {
  return "Embedding(" + std::to_string(vocab_) + "x" + std::to_string(dim_) +
         ")";
}

// -- LayerNorm -------------------------------------------------------------------

LayerNorm::LayerNorm(std::size_t dim, Scalar eps) : dim_(dim), eps_(eps) {
  gamma_ = Variable(Tensor::ones({dim}), /*requires_grad=*/true);
  beta_ = Variable(Tensor::zeros({dim}), /*requires_grad=*/true);
}

Variable LayerNorm::forward(const Variable& x) {
  AVGPIPE_CHECK(x.shape().back() == dim_,
                name() << ": last dim " << x.shape().back() << " != " << dim_);
  return tensor::layer_norm(x, gamma_, beta_, eps_);
}

std::vector<Variable> LayerNorm::parameters() { return {gamma_, beta_}; }

std::string LayerNorm::name() const {
  return "LayerNorm(" + std::to_string(dim_) + ")";
}

// -- Dropout ---------------------------------------------------------------------

Dropout::Dropout(double p, Rng& rng) : p_(p), rng_(rng.fork(0xD0)) {}

Variable Dropout::forward(const Variable& x) {
  return tensor::dropout(x, p_, rng_, training_);
}

std::string Dropout::name() const {
  return "Dropout(p=" + std::to_string(p_) + ")";
}

// -- pooling ---------------------------------------------------------------------

Variable MeanPoolSeq::forward(const Variable& x) {
  AVGPIPE_CHECK(x.shape().size() == 3, "MeanPoolSeq expects [B,S,D]");
  const std::size_t b = x.shape()[0], s = x.shape()[1], d = x.shape()[2];
  Tensor out({b, d});
  const auto xv = x.value().data();
  auto ov = out.data();
  const Scalar inv_s = 1.0 / static_cast<Scalar>(s);
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t t = 0; t < s; ++t) {
      for (std::size_t c = 0; c < d; ++c) {
        ov[i * d + c] += xv[(i * s + t) * d + c] * inv_s;
      }
    }
  }
  auto px = x.data();
  return Variable::make_op(std::move(out), {x}, [px, b, s, d](VarData& o) {
    Tensor g(px->value.shape());
    auto gv = g.data();
    const auto og = o.grad.data();
    const Scalar inv_s2 = 1.0 / static_cast<Scalar>(s);
    for (std::size_t i = 0; i < b; ++i) {
      for (std::size_t t = 0; t < s; ++t) {
        for (std::size_t c = 0; c < d; ++c) {
          gv[(i * s + t) * d + c] = og[i * d + c] * inv_s2;
        }
      }
    }
    px->accumulate_grad(g);
  });
}

Variable LastStep::forward(const Variable& x) {
  AVGPIPE_CHECK(x.shape().size() == 3, "LastStep expects [B,S,D]");
  const std::size_t b = x.shape()[0], s = x.shape()[1], d = x.shape()[2];
  Tensor out({b, d});
  const auto xv = x.value().data();
  auto ov = out.data();
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t c = 0; c < d; ++c) {
      ov[i * d + c] = xv[(i * s + (s - 1)) * d + c];
    }
  }
  auto px = x.data();
  return Variable::make_op(std::move(out), {x}, [px, b, s, d](VarData& o) {
    Tensor g(px->value.shape());
    auto gv = g.data();
    const auto og = o.grad.data();
    for (std::size_t i = 0; i < b; ++i) {
      for (std::size_t c = 0; c < d; ++c) {
        gv[(i * s + (s - 1)) * d + c] = og[i * d + c];
      }
    }
    px->accumulate_grad(g);
  });
}

}  // namespace avgpipe::nn
