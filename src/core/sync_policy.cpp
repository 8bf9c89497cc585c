#include "core/sync_policy.hpp"

#include "common/check.hpp"

namespace avgpipe::core {

common::Role& reference_capability() {
  // One process-wide phantom capability: it carries no runtime state, it is
  // only a name the thread-safety analysis can track across translation
  // units. Function-local static so the reference is valid at any point of
  // static initialisation.
  static common::Role role;
  return role;
}

std::string to_string(SyncPolicyKind kind) {
  switch (kind) {
    case SyncPolicyKind::kElastic: return "elastic";
    case SyncPolicyKind::kBsp: return "bsp";
    case SyncPolicyKind::kBmuf: return "bmuf";
    case SyncPolicyKind::kXPipe: return "xpipe";
  }
  return "?";
}

SyncPolicyConfig degenerate_config(SyncPolicyKind kind) {
  SyncPolicyConfig cfg;
  cfg.kind = kind;
  switch (kind) {
    case SyncPolicyKind::kElastic:
    case SyncPolicyKind::kBsp:
      // α = 0 at N = 1 (driver default) / exact mean assignment at n = 1.
      break;
    case SyncPolicyKind::kBmuf:
      // η = 0, ζ = 1: W(t) = mean(x_i) exactly (filter_apply's assignment
      // fast path).
      cfg.block_momentum = 0.0;
      break;
    case SyncPolicyKind::kXPipe:
      // Elastic degenerate plus prediction off: ŵ = w.
      cfg.prediction_lookahead = 0.0;
      break;
  }
  return cfg;
}

ParamSet SyncPolicy::local_sync(std::span<tensor::Variable> params,
                                std::span<const tensor::Tensor> broadcast,
                                double alpha) const {
  ParamSet values = values_of(params);
  ParamSet out = tensor::zeros_like(values);
  local_sync(values, broadcast, alpha, out);
  return out;
}

void SyncPolicy::import_state(const ReferenceModel& /*reference*/,
                              std::span<const tensor::Tensor> state) {
  AVGPIPE_CHECK(state.empty(), "policy '" << name() << "' is stateless but "
                                          << state.size()
                                          << " state tensors were restored");
}

void SyncPolicy::make_broadcast(const ReferenceModel& reference,
                                ParamSet& out) const {
  copy_into(out, reference.params());
}

ParamSet SyncPolicy::make_broadcast(const ReferenceModel& reference) const {
  ParamSet out = tensor::zeros_like(reference.params());
  make_broadcast(reference, out);
  return out;
}

namespace {

/// Mean of the round's parameter sets into `dst`: the fold of that one
/// round from zero. n = 1 assigns exactly (a copy) rather than via
/// 0 + 1·(1.0·x), so a lone replica round-trips bit-identically — the parity
/// gate's foundation for BSP and BMUF.
void round_mean(ParamSet& dst, const std::vector<ParamSet>& round) {
  if (round.size() == 1) return copy_into(dst, round[0]);
  fold_rounds(dst, std::span(&round, 1), true);
}

/// The paper's elastic averaging: pull/push against the broadcast, reference
/// accumulates the updates.
class ElasticPolicy : public SyncPolicy {
 public:
  using SyncPolicy::SyncPolicy;
  std::string name() const override { return "elastic"; }

  void local_sync(std::span<tensor::Tensor> params,
                  std::span<const tensor::Tensor> broadcast, double alpha,
                  std::span<tensor::Tensor> out) const override {
    AVGPIPE_CHECK(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0,1]");
    // Step ❷, the pull x ← x + α·(ref − x), then step ❸'s update
    // u = x + (−1)·ref, in one pass.
    tensor::for_each_shard(
        [alpha](std::span<tensor::Scalar> x,
                std::span<const tensor::Scalar> ref,
                std::span<tensor::Scalar> u) {
          for (std::size_t j = 0; j < x.size(); ++j) {
            const tensor::Scalar pulled = x[j] + alpha * (ref[j] - x[j]);
            x[j] = pulled;
            u[j] = pulled + -1.0 * ref[j];
          }
        },
        params, broadcast, out);
  }

  void apply_rounds(ReferenceModel& reference,
                    const std::vector<std::vector<ParamSet>>& rounds)
      REQUIRES(reference_capability()) override {
    reference.apply_round_batch(rounds);  // XPipe inherits this too
  }
};

/// BSP model averaging: every round restarts each replica from the broadcast
/// and the reference becomes the plain mean of the trained replicas.
class BspPolicy : public SyncPolicy {
 public:
  using SyncPolicy::SyncPolicy;
  std::string name() const override { return "bsp"; }

  bool needs_begin() const override { return true; }

  void begin_round(std::span<tensor::Tensor> params,
                   std::span<const tensor::Tensor> broadcast) const override {
    copy_into(params, broadcast);
  }

  void local_sync(std::span<tensor::Tensor> params,
                  std::span<const tensor::Tensor> /*broadcast*/,
                  double /*alpha*/,
                  std::span<tensor::Tensor> out) const override {
    // Ship the trained weights; the replica itself is untouched (it restarts
    // from the next broadcast anyway).
    copy_into(out, params);
  }

  void apply_rounds(ReferenceModel& reference,
                    const std::vector<std::vector<ParamSet>>& rounds)
      REQUIRES(reference_capability()) override {
    for (const auto& round : rounds) {
      round_mean(reference.mutable_params(), round);
    }
  }
};

/// BMUF: BSP's restart protocol, but the reference filters the block delta
/// through `optim::BlockMomentum` (ζ = 1 − η) and broadcasts the Nesterov
/// restart point W + η·Δ.
class BmufPolicy : public BspPolicy {
 public:
  explicit BmufPolicy(SyncPolicyConfig config)
      : BspPolicy(config),
        momentum_(config.block_momentum, 1.0 - config.block_momentum) {}

  std::string name() const override { return "bmuf"; }

  void apply_rounds(ReferenceModel& reference,
                    const std::vector<std::vector<ParamSet>>& rounds)
      REQUIRES(reference_capability()) override {
    if (mean_.empty()) mean_ = tensor::zeros_like(reference.params());
    for (const auto& round : rounds) {
      round_mean(mean_, round);
      momentum_.filter_apply(reference.mutable_params(), mean_);
    }
  }

  void make_broadcast(const ReferenceModel& reference, ParamSet& out) const
      REQUIRES(reference_capability()) override {
    SyncPolicy::make_broadcast(reference, out);
    momentum_.add_restart_offset(out);
  }

  std::vector<tensor::Tensor> export_state() const
      REQUIRES(reference_capability()) override {
    return clone_set(momentum_.delta());
  }

  void import_state(const ReferenceModel& reference,
                    std::span<const tensor::Tensor> state)
      REQUIRES(reference_capability()) override {
    // Δ lands in the reference's layout; copy_into rejects a count or size
    // that differs from the reference's.
    ParamSet delta;
    if (!state.empty()) {
      delta = tensor::zeros_like(reference.params());
      copy_into(delta, state);
    }
    momentum_.set_delta(std::move(delta));
  }

 private:
  // The analysis proves these are only touched from reference-side hooks —
  // the data-race freedom DESIGN.md §13 used to assert by prose alone.
  optim::BlockMomentum momentum_ GUARDED_BY(reference_capability());
  ParamSet mean_ GUARDED_BY(reference_capability());  ///< block-mean scratch
};

/// XPipe: elastic coupling across replicas; the runtime layer additionally
/// runs each stage's compute on predicted weights (the lookahead wired by
/// AvgPipe::start_runtime from this policy's config).
class XPipePolicy : public ElasticPolicy {
 public:
  using ElasticPolicy::ElasticPolicy;
  std::string name() const override { return "xpipe"; }
};

}  // namespace

std::unique_ptr<SyncPolicy> make_sync_policy(const SyncPolicyConfig& config) {
  switch (config.kind) {
    case SyncPolicyKind::kElastic:
      return std::make_unique<ElasticPolicy>(config);
    case SyncPolicyKind::kBsp:
      return std::make_unique<BspPolicy>(config);
    case SyncPolicyKind::kBmuf:
      return std::make_unique<BmufPolicy>(config);
    case SyncPolicyKind::kXPipe:
      return std::make_unique<XPipePolicy>(config);
  }
  AVGPIPE_THROW("unknown sync policy kind");
}

std::vector<SyncPolicyKind> all_sync_policies() {
  return {SyncPolicyKind::kElastic, SyncPolicyKind::kBsp,
          SyncPolicyKind::kBmuf, SyncPolicyKind::kXPipe};
}

}  // namespace avgpipe::core
