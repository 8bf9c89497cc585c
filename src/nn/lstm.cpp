#include "nn/lstm.hpp"

#include <cmath>

namespace avgpipe::nn {

LSTM::LSTM(std::size_t input, std::size_t hidden, Rng& rng, double weight_drop)
    : input_(input),
      hidden_(hidden),
      weight_drop_(weight_drop),
      rng_(rng.fork(0x157)) {
  AVGPIPE_CHECK(weight_drop >= 0.0 && weight_drop < 1.0,
                "weight_drop must be in [0,1)");
  const Scalar s_in = 1.0 / std::sqrt(static_cast<Scalar>(input));
  const Scalar s_h = 1.0 / std::sqrt(static_cast<Scalar>(hidden));
  w_ih_ = Variable(Tensor::randn({input, 4 * hidden}, rng, s_in),
                   /*requires_grad=*/true);
  w_hh_ = Variable(Tensor::randn({hidden, 4 * hidden}, rng, s_h),
                   /*requires_grad=*/true);
  // Forget-gate bias 1.0 is standard practice for trainability.
  Tensor b = Tensor::zeros({4 * hidden});
  for (std::size_t i = hidden; i < 2 * hidden; ++i) b[i] = 1.0;
  bias_ = Variable(std::move(b), /*requires_grad=*/true);
}

std::pair<Variable, Variable> LSTM::cell(const Variable& x_t,
                                         const Variable& h, const Variable& c,
                                         const Variable& w_hh_eff) {
  using namespace tensor;
  // In-place bias: the add output is freshly owned here and add's backward
  // never reads its own output value.
  Variable gates = add_bias_(
      add(matmul(x_t, w_ih_), matmul(h, w_hh_eff)), bias_);  // [B,4H]
  Variable i = sigmoid(slice_cols(gates, 0, hidden_));
  Variable f = sigmoid(slice_cols(gates, hidden_, 2 * hidden_));
  Variable g = tanh_op(slice_cols(gates, 2 * hidden_, 3 * hidden_));
  Variable o = sigmoid(slice_cols(gates, 3 * hidden_, 4 * hidden_));
  Variable c_next = add(mul(f, c), mul(i, g));
  Variable h_next = mul(o, tanh_op(c_next));
  return {h_next, c_next};
}

Variable LSTM::forward(const Variable& x) {
  AVGPIPE_CHECK(x.shape().size() == 3, name() << " expects [B,S,In]");
  const std::size_t b = x.shape()[0], s = x.shape()[1];
  AVGPIPE_CHECK(x.shape()[2] == input_, name() << " input dim mismatch");

  // DropConnect: a single mask per forward pass (per AWD-LSTM), applied to
  // the recurrent weights only.
  Variable w_hh_eff = w_hh_;
  if (training_ && weight_drop_ > 0.0) {
    const Scalar keep = 1.0 - weight_drop_;
    Tensor mask(w_hh_.shape());
    for (auto& m : mask.data()) m = rng_.bernoulli(keep) ? 1.0 / keep : 0.0;
    w_hh_eff = tensor::mul(w_hh_, Variable(mask));
  }

  Variable h(Tensor::zeros({b, hidden_}));
  Variable c(Tensor::zeros({b, hidden_}));
  Variable flat = tensor::reshape(x, {b * s, input_});

  std::vector<Variable> outputs;
  outputs.reserve(s);
  for (std::size_t t = 0; t < s; ++t) {
    // Gather x[:, t, :] as rows {i*s + t}. slice_rows handles contiguous
    // ranges only, so transpose the layout once instead: iterate over time
    // by slicing the [B*S, In] flat view per batch row is O(B) slices; we
    // instead materialise x_t directly.
    Tensor x_t({b, input_});
    const auto xv = x.value().data();
    auto tv = x_t.data();
    for (std::size_t i = 0; i < b; ++i) {
      std::copy(xv.data() + (i * s + t) * input_,
                xv.data() + (i * s + t + 1) * input_, tv.data() + i * input_);
    }
    // Route gradients back to the input through a gather op.
    auto px = x.data();
    Variable x_t_var = Variable::make_op(
        std::move(x_t), {x},
        [px, b, s, t, in = input_](tensor::detail::VarData& o) {
          Tensor g(px->value.shape());
          auto gv = g.data();
          const auto og = o.grad.data();
          for (std::size_t i = 0; i < b; ++i) {
            for (std::size_t cidx = 0; cidx < in; ++cidx) {
              gv[(i * s + t) * in + cidx] = og[i * in + cidx];
            }
          }
          px->accumulate_grad(g);
        });
    auto [h_next, c_next] = cell(x_t_var, h, c, w_hh_eff);
    h = h_next;
    c = c_next;
    outputs.push_back(h);
  }
  (void)flat;

  // Stack outputs [S][B,H] into [B,S,H].
  Tensor out({b, s, hidden_});
  auto ov = out.data();
  for (std::size_t t = 0; t < s; ++t) {
    const auto hv = outputs[t].value().data();
    for (std::size_t i = 0; i < b; ++i) {
      std::copy(hv.data() + i * hidden_, hv.data() + (i + 1) * hidden_,
                ov.data() + (i * s + t) * hidden_);
    }
  }
  std::vector<std::shared_ptr<tensor::detail::VarData>> parents;
  for (const auto& o : outputs) parents.push_back(o.data());
  return Variable::make_op(
      std::move(out), outputs,
      [parents, b, s, hid = hidden_](tensor::detail::VarData& o) {
        const auto og = o.grad.data();
        for (std::size_t t = 0; t < s; ++t) {
          if (!parents[t]->requires_grad) continue;
          Tensor g({b, hid});
          auto gv = g.data();
          for (std::size_t i = 0; i < b; ++i) {
            std::copy(og.data() + (i * s + t) * hid,
                      og.data() + (i * s + t + 1) * hid, gv.data() + i * hid);
          }
          parents[t]->accumulate_grad(g);
        }
      });
}

std::vector<Variable> LSTM::parameters() { return {w_ih_, w_hh_, bias_}; }

std::string LSTM::name() const {
  return "LSTM(" + std::to_string(input_) + "->" + std::to_string(hidden_) +
         (weight_drop_ > 0.0 ? ", wdrop=" + std::to_string(weight_drop_) : "") +
         ")";
}

}  // namespace avgpipe::nn
