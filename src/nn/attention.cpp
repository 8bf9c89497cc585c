#include "nn/attention.hpp"

namespace avgpipe::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(std::size_t d_model,
                                               std::size_t num_heads, Rng& rng,
                                               double dropout_p)
    : d_model_(d_model),
      heads_(num_heads),
      qkv_(d_model, 3 * d_model, rng),
      proj_(d_model, d_model, rng),
      attn_dropout_p_(dropout_p),
      attn_rng_(rng.fork(0xD0)) {
  AVGPIPE_CHECK(d_model % num_heads == 0,
                "d_model " << d_model << " not divisible by heads "
                           << num_heads);
}

Variable MultiHeadSelfAttention::forward(const Variable& x) {
  AVGPIPE_CHECK(x.shape().size() == 3, name() << " expects [B,S,D]");
  AVGPIPE_CHECK(x.shape()[2] == d_model_, name() << " d_model mismatch");
  Variable ctx = tensor::multi_head_attention(
      qkv_.forward(x), heads_, attn_dropout_p_, attn_rng_, training_);
  return proj_.forward(ctx);
}

std::vector<Variable> MultiHeadSelfAttention::parameters() {
  std::vector<Variable> params = qkv_.parameters();
  auto p2 = proj_.parameters();
  params.insert(params.end(), p2.begin(), p2.end());
  return params;
}

std::string MultiHeadSelfAttention::name() const {
  return "MHSA(d=" + std::to_string(d_model_) +
         ", h=" + std::to_string(heads_) + ")";
}

TransformerEncoderLayer::TransformerEncoderLayer(std::size_t d_model,
                                                 std::size_t num_heads,
                                                 std::size_t d_ff, Rng& rng,
                                                 double dropout_p)
    : d_model_(d_model),
      ln1_(d_model),
      ln2_(d_model),
      attn_(d_model, num_heads, rng, dropout_p),
      ff1_(d_model, d_ff, rng),
      ff2_(d_ff, d_model, rng),
      dropout_(dropout_p, rng) {}

Variable TransformerEncoderLayer::forward(const Variable& x) {
  Variable h = tensor::add(x, dropout_.forward(attn_.forward(ln1_.forward(x))));
  Variable ff = ff2_.forward(tensor::gelu(ff1_.forward(ln2_.forward(h))));
  return tensor::add(h, dropout_.forward(ff));
}

std::vector<Variable> TransformerEncoderLayer::parameters() {
  std::vector<Variable> params;
  for (Module* m :
       std::initializer_list<Module*>{&ln1_, &ln2_, &attn_, &ff1_, &ff2_}) {
    auto p = m->parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

std::string TransformerEncoderLayer::name() const {
  return "TransformerEncoderLayer(d=" + std::to_string(d_model_) + ")";
}

void TransformerEncoderLayer::set_training(bool training) {
  Module::set_training(training);
  attn_.set_training(training);
  dropout_.set_training(training);
}

}  // namespace avgpipe::nn
