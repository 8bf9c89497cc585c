#pragma once

/// \file optimizer.hpp
/// Optimizer interface plus the concrete optimizers the paper's experiments
/// use: SGD (with momentum / weight decay), Adam, Adagrad, and ASGD
/// (Polyak–Juditsky averaging, used by the AWD workload).
///
/// A core claim of the paper (§3.1–3.2) is that the elastic-averaging
/// framework is *decoupled* from the optimizer — unlike EASGD/Crossbow which
/// bake averaging into an extended SGD. Our `core::ElasticAveraging`
/// therefore operates on raw parameter tensors after `Optimizer::step()`,
/// and everything here is averaging-agnostic.

#include <memory>
#include <string>
#include <vector>

#include "tensor/autograd.hpp"

namespace avgpipe::optim {

using tensor::Scalar;
using tensor::Tensor;
using tensor::Variable;

/// Portable snapshot of an optimizer's mutable state, used by the checkpoint
/// layer (`src/ckpt`). `slots` is the optimizer's tensor-valued state in a
/// fixed per-optimizer order (e.g. Adam: all first moments then all second
/// moments); `scalars` carries any extra scalar state (e.g. ASGD's averaged
/// step count). Bit-exact: slots are cloned, never re-derived.
struct OptimizerState {
  std::string name;             ///< must match the importing optimizer
  std::size_t steps = 0;        ///< step_count() — Adam bias correction needs it
  std::vector<Scalar> scalars;  ///< optimizer-specific scalar state
  std::vector<Tensor> slots;    ///< optimizer-specific tensor slots
};

/// Base optimizer over a fixed parameter list.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Variable> params, Scalar lr)
      : params_(std::move(params)), lr_(lr) {}
  virtual ~Optimizer() = default;

  /// Apply one update from the parameters' current gradients.
  virtual void step() = 0;

  virtual std::string name() const = 0;

  /// Snapshot all mutable state needed to resume bit-exactly. The base
  /// captures `name` and the step count; subclasses append their slots.
  virtual OptimizerState export_state() const;

  /// Restore a snapshot produced by `export_state` on a same-shaped
  /// optimizer. Throws avgpipe::Error on a name or shape mismatch.
  virtual void import_state(const OptimizerState& state);

  void zero_grad() {
    for (auto& p : params_) p.zero_grad();
  }

  Scalar lr() const { return lr_; }
  void set_lr(Scalar lr) { lr_ = lr; }
  const std::vector<Variable>& params() const { return params_; }
  std::size_t step_count() const { return steps_; }

 protected:
  std::vector<Variable> params_;
  Scalar lr_;
  std::size_t steps_ = 0;
};

/// SGD with optional momentum and L2 weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Variable> params, Scalar lr, Scalar momentum = 0.0,
      Scalar weight_decay = 0.0);
  void step() override;
  std::string name() const override { return "SGD"; }
  OptimizerState export_state() const override;
  void import_state(const OptimizerState& state) override;

 private:
  Scalar momentum_, weight_decay_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba 2015), the optimizer the paper trains GNMT/BERT with.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Variable> params, Scalar lr, Scalar beta1 = 0.9,
       Scalar beta2 = 0.999, Scalar eps = 1e-8);
  void step() override;
  std::string name() const override { return "Adam"; }
  OptimizerState export_state() const override;
  void import_state(const OptimizerState& state) override;

 private:
  Scalar beta1_, beta2_, eps_;
  std::vector<Tensor> m_, v_;
};

/// Adagrad (Duchi et al. 2011).
class Adagrad : public Optimizer {
 public:
  Adagrad(std::vector<Variable> params, Scalar lr, Scalar eps = 1e-10);
  void step() override;
  std::string name() const override { return "Adagrad"; }
  OptimizerState export_state() const override;
  void import_state(const OptimizerState& state) override;

 private:
  Scalar eps_;
  std::vector<Tensor> accum_;
};

/// ASGD: SGD plus a running Polyak average of the iterates, started after
/// `trigger` steps. `averaged_params()` exposes the averaged weights the
/// AWD recipe evaluates with.
class Asgd : public Optimizer {
 public:
  Asgd(std::vector<Variable> params, Scalar lr, std::size_t trigger = 0,
       Scalar weight_decay = 0.0);
  void step() override;
  std::string name() const override { return "ASGD"; }
  OptimizerState export_state() const override;
  void import_state(const OptimizerState& state) override;

  /// Polyak-averaged weights (equals current weights before the trigger).
  std::vector<Tensor> averaged_params() const;
  /// Overwrite live weights with the averages (for final evaluation).
  void swap_to_average();

 private:
  std::size_t trigger_;
  Scalar weight_decay_;
  std::vector<Tensor> average_;
  std::size_t averaged_steps_ = 0;
};

/// Blockwise model-update filtering state (Chen & Huo 2016), the reference-
/// side momentum BMUF applies between training blocks. Where the optimizers
/// above smooth per-batch *gradients*, this smooths the per-block *model
/// delta* G(t) = mean(x_i) − W(t−1):
///
///   Δ(t) = η·Δ(t−1) + ζ·G(t)        (block momentum η, block lr ζ)
///   W(t) = W(t−1) + Δ(t)
///
/// The classic CBM stability condition requires the effective block learning
/// rate λ = ζ/(1−η) not to exceed 1 — λ > 1 systematically over-shoots the
/// block mean and diverges — and η < 1 so the filter is contractive. Both
/// are enforced at construction (a misconfigured sweep must fail loudly, not
/// produce NaNs three epochs in). In the degenerate configuration η = 0,
/// ζ = 1 the recursion collapses to W(t) = mean(x_i) and `filter_apply`
/// takes an exact-assignment fast path so the collapse is bit-exact, which
/// is what the sync-policy parity gate relies on.
class BlockMomentum {
 public:
  BlockMomentum(Scalar block_momentum, Scalar block_lr);

  /// λ = ζ/(1−η), the effective per-block learning rate.
  static Scalar effective_lr(Scalar block_momentum, Scalar block_lr);

  /// One block update: fold `block_mean` into `global` through the filter,
  /// one pass per shard. `block_mean` and Δ must match `global` tensor for
  /// tensor; Δ is lazily initialised to zeros in `global`'s layout.
  void filter_apply(std::vector<Tensor>& global,
                    const std::vector<Tensor>& block_mean);

  /// Add the Nesterov restart offset η·Δ(t) into `broadcast` (no-op until
  /// the first filter_apply, or when η = 0).
  void add_restart_offset(std::vector<Tensor>& broadcast) const;

  const std::vector<Tensor>& delta() const { return delta_; }
  /// Restore Δ(t) from a checkpoint (empty = back to uninitialised; the
  /// next `filter_apply` checks it against the global model).
  void set_delta(std::vector<Tensor> delta) { delta_ = std::move(delta); }

 private:
  Scalar eta_, zeta_;
  std::vector<Tensor> delta_;  ///< Δ(t), lazily shaped like the global model
};

/// Optimizer kinds for factory construction (used by configs and benches).
enum class OptimizerKind { kSgd, kMomentum, kAdam, kAdagrad, kAsgd };

std::unique_ptr<Optimizer> make_optimizer(OptimizerKind kind,
                                          std::vector<Variable> params,
                                          Scalar lr);
std::string to_string(OptimizerKind kind);

}  // namespace avgpipe::optim
