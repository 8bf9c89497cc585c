#include "optim/optimizer.hpp"

#include <cmath>

#include "common/check.hpp"

namespace avgpipe::optim {

namespace {

/// Clone `src` onto the end of `state.slots`.
void append_slots(OptimizerState& state, const std::vector<Tensor>& src) {
  for (Tensor& t : tensor::clone_set(src)) state.slots.push_back(std::move(t));
}

/// Copy `dst.size()` slots starting at `offset` into `dst` (size-checked).
void restore_slots(const OptimizerState& state, std::size_t offset,
                   std::vector<Tensor>& dst) {
  AVGPIPE_CHECK(offset + dst.size() <= state.slots.size(),
                "optimizer state '" << state.name << "': expected at least "
                                    << offset + dst.size() << " slots, got "
                                    << state.slots.size());
  tensor::copy_into(dst, std::span(state.slots).subspan(offset, dst.size()));
}

}  // namespace

OptimizerState Optimizer::export_state() const {
  OptimizerState state;
  state.name = name();
  state.steps = steps_;
  return state;
}

void Optimizer::import_state(const OptimizerState& state) {
  AVGPIPE_CHECK(state.name == name(), "optimizer state kind mismatch: saved '"
                                          << state.name << "', importing into '"
                                          << name() << "'");
  steps_ = state.steps;
}

// -- SGD ------------------------------------------------------------------------

Sgd::Sgd(std::vector<Variable> params, Scalar lr, Scalar momentum,
         Scalar weight_decay)
    : Optimizer(std::move(params), lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  if (momentum_ != 0.0) velocity_ = tensor::zeros_like(values_of(params_));
}

void Sgd::step() {
  // Single fused pass: no grad clone, and decay/velocity/weight updates all
  // happen in one sweep per parameter instead of up to four.
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    const auto g = p.grad().data();
    auto w = p.value().data();
    const std::size_t n = w.size();
    if (momentum_ != 0.0) {
      auto v = velocity_[i].data();
      for (std::size_t j = 0; j < n; ++j) {
        Scalar gj = g[j];
        if (weight_decay_ != 0.0) gj += weight_decay_ * w[j];
        Scalar vj = v[j] * momentum_;
        vj += gj;
        v[j] = vj;
        w[j] += -lr_ * vj;
      }
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        Scalar gj = g[j];
        if (weight_decay_ != 0.0) gj += weight_decay_ * w[j];
        w[j] += -lr_ * gj;
      }
    }
  }
  ++steps_;
}

OptimizerState Sgd::export_state() const {
  OptimizerState state = Optimizer::export_state();
  append_slots(state, velocity_);  // empty when momentum == 0
  return state;
}

void Sgd::import_state(const OptimizerState& state) {
  Optimizer::import_state(state);
  AVGPIPE_CHECK(state.slots.size() == velocity_.size(),
                "SGD state: saved " << state.slots.size()
                                    << " velocity slots, optimizer has "
                                    << velocity_.size());
  restore_slots(state, 0, velocity_);
}

// -- Adam -----------------------------------------------------------------------

Adam::Adam(std::vector<Variable> params, Scalar lr, Scalar beta1, Scalar beta2,
           Scalar eps)
    : Optimizer(std::move(params), lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  m_ = tensor::zeros_like(values_of(params_));
  v_ = tensor::zeros_like(m_);
}

void Adam::step() {
  ++steps_;
  const Scalar bc1 = 1.0 - std::pow(beta1_, static_cast<Scalar>(steps_));
  const Scalar bc2 = 1.0 - std::pow(beta2_, static_cast<Scalar>(steps_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    const auto g = p.grad().data();
    auto m = m_[i].data();
    auto v = v_[i].data();
    auto w = p.value().data();
    for (std::size_t j = 0; j < w.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0 - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0 - beta2_) * g[j] * g[j];
      const Scalar mhat = m[j] / bc1;
      const Scalar vhat = v[j] / bc2;
      w[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

OptimizerState Adam::export_state() const {
  OptimizerState state = Optimizer::export_state();
  append_slots(state, m_);
  append_slots(state, v_);
  return state;
}

void Adam::import_state(const OptimizerState& state) {
  Optimizer::import_state(state);
  AVGPIPE_CHECK(state.slots.size() == m_.size() + v_.size(),
                "Adam state: saved " << state.slots.size() << " slots, expected "
                                     << m_.size() + v_.size());
  restore_slots(state, 0, m_);
  restore_slots(state, m_.size(), v_);
}

// -- Adagrad ----------------------------------------------------------------------

Adagrad::Adagrad(std::vector<Variable> params, Scalar lr, Scalar eps)
    : Optimizer(std::move(params), lr), eps_(eps) {
  accum_ = tensor::zeros_like(values_of(params_));
}

void Adagrad::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    const auto g = p.grad().data();
    auto a = accum_[i].data();
    auto w = p.value().data();
    for (std::size_t j = 0; j < w.size(); ++j) {
      a[j] += g[j] * g[j];
      w[j] -= lr_ * g[j] / (std::sqrt(a[j]) + eps_);
    }
  }
  ++steps_;
}

OptimizerState Adagrad::export_state() const {
  OptimizerState state = Optimizer::export_state();
  append_slots(state, accum_);
  return state;
}

void Adagrad::import_state(const OptimizerState& state) {
  Optimizer::import_state(state);
  AVGPIPE_CHECK(state.slots.size() == accum_.size(),
                "Adagrad state: saved " << state.slots.size()
                                        << " slots, expected " << accum_.size());
  restore_slots(state, 0, accum_);
}

// -- ASGD -------------------------------------------------------------------------

Asgd::Asgd(std::vector<Variable> params, Scalar lr, std::size_t trigger,
           Scalar weight_decay)
    : Optimizer(std::move(params), lr),
      trigger_(trigger),
      weight_decay_(weight_decay) {
  average_ = tensor::zeros_like(values_of(params_));
}

void Asgd::step() {
  // Fused as in Sgd::step: no grad clone, one sweep per parameter.
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    const auto g = p.grad().data();
    auto w = p.value().data();
    const std::size_t n = w.size();
    for (std::size_t j = 0; j < n; ++j) {
      Scalar gj = g[j];
      if (weight_decay_ != 0.0) gj += weight_decay_ * w[j];
      w[j] += -lr_ * gj;
    }
  }
  ++steps_;
  if (steps_ > trigger_) {
    ++averaged_steps_;
    const Scalar t = 1.0 / static_cast<Scalar>(averaged_steps_);
    for (std::size_t i = 0; i < params_.size(); ++i) {
      // running mean: avg += (w - avg) / n
      average_[i].lerp_(params_[i].value(), t);
    }
  }
}

std::vector<Tensor> Asgd::averaged_params() const {
  return averaged_steps_ > 0 ? tensor::clone_set(average_)
                             : tensor::clone_values(params_);
}

void Asgd::swap_to_average() {
  if (averaged_steps_ == 0) return;
  auto values = tensor::values_of(params_);
  tensor::copy_into(values, average_);
}

OptimizerState Asgd::export_state() const {
  OptimizerState state = Optimizer::export_state();
  state.scalars.push_back(static_cast<Scalar>(averaged_steps_));
  append_slots(state, average_);
  return state;
}

void Asgd::import_state(const OptimizerState& state) {
  Optimizer::import_state(state);
  AVGPIPE_CHECK(state.scalars.size() == 1,
                "ASGD state: expected 1 scalar (averaged steps), got "
                    << state.scalars.size());
  AVGPIPE_CHECK(state.slots.size() == average_.size(),
                "ASGD state: saved " << state.slots.size()
                                     << " slots, expected " << average_.size());
  averaged_steps_ = static_cast<std::size_t>(state.scalars[0]);
  restore_slots(state, 0, average_);
}

// -- BlockMomentum (BMUF reference-side state) -------------------------------------

BlockMomentum::BlockMomentum(Scalar block_momentum, Scalar block_lr)
    : eta_(block_momentum), zeta_(block_lr) {
  AVGPIPE_CHECK(eta_ >= 0.0 && eta_ < 1.0,
                "BMUF block momentum must be in [0,1), got " << eta_);
  AVGPIPE_CHECK(zeta_ > 0.0, "BMUF block lr must be positive, got " << zeta_);
  // Classic CBM stability condition: the effective per-block rate
  // λ = ζ/(1−η) must not exceed 1 (tiny tolerance for the ζ = 1−η default
  // computed in floating point).
  const Scalar lambda = effective_lr(eta_, zeta_);
  AVGPIPE_CHECK(lambda <= 1.0 + 1e-9,
                "BMUF violates the CBM stability condition: effective lr "
                    << lambda << " = " << zeta_ << "/(1-" << eta_
                    << ") exceeds 1");
}

Scalar BlockMomentum::effective_lr(Scalar block_momentum, Scalar block_lr) {
  return block_lr / (1.0 - block_momentum);
}

void BlockMomentum::filter_apply(std::vector<Tensor>& global,
                                 const std::vector<Tensor>& block_mean) {
  if (delta_.empty()) delta_ = tensor::zeros_like(global);
  AVGPIPE_CHECK(delta_.size() == global.size(),
                "global/delta size mismatch: " << global.size() << " vs "
                                               << delta_.size());
  // η = 0, ζ = 1 collapses to W(t) = mean(x_i); assign exactly (rather than
  // W += (mean − W), whose round-trip is not bit-exact) so the degenerate
  // configuration is bit-identical to plain model averaging.
  const bool degenerate = eta_ == 0.0 && zeta_ == 1.0;
  tensor::for_each_shard(
      [&](std::span<Scalar> wv, std::span<const Scalar> mv,
          std::span<Scalar> dv) {
        if (degenerate) {
          for (std::size_t j = 0; j < wv.size(); ++j) {
            dv[j] = mv[j] - wv[j];
            wv[j] = mv[j];
          }
        } else {
          for (std::size_t j = 0; j < wv.size(); ++j) {
            const Scalar d = eta_ * dv[j] + zeta_ * (mv[j] - wv[j]);
            dv[j] = d;
            wv[j] += d;
          }
        }
      },
      global, block_mean, delta_);
}

void BlockMomentum::add_restart_offset(std::vector<Tensor>& broadcast) const {
  if (delta_.empty() || eta_ == 0.0) return;
  tensor::for_each_shard(
      [this](std::span<Scalar> bv, std::span<const Scalar> dv) {
        for (std::size_t j = 0; j < bv.size(); ++j) bv[j] += eta_ * dv[j];
      },
      broadcast, delta_);
}

// -- factory ----------------------------------------------------------------------

std::unique_ptr<Optimizer> make_optimizer(OptimizerKind kind,
                                          std::vector<Variable> params,
                                          Scalar lr) {
  switch (kind) {
    case OptimizerKind::kSgd:
      return std::make_unique<Sgd>(std::move(params), lr);
    case OptimizerKind::kMomentum:
      return std::make_unique<Sgd>(std::move(params), lr, 0.9);
    case OptimizerKind::kAdam:
      return std::make_unique<Adam>(std::move(params), lr);
    case OptimizerKind::kAdagrad:
      return std::make_unique<Adagrad>(std::move(params), lr);
    case OptimizerKind::kAsgd:
      return std::make_unique<Asgd>(std::move(params), lr);
  }
  AVGPIPE_THROW("unknown optimizer kind");
}

std::string to_string(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kSgd: return "sgd";
    case OptimizerKind::kMomentum: return "momentum";
    case OptimizerKind::kAdam: return "adam";
    case OptimizerKind::kAdagrad: return "adagrad";
    case OptimizerKind::kAsgd: return "asgd";
  }
  return "?";
}

}  // namespace avgpipe::optim
