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
      // W(t) = mean(x_i) exactly (filter_apply's assignment fast path).
      cfg.block_momentum = 0.0;
      cfg.block_lr = 1.0;
      break;
    case SyncPolicyKind::kXPipe:
      // Elastic degenerate plus prediction off: ŵ = w.
      cfg.prediction_lookahead = 0.0;
      break;
  }
  return cfg;
}

void SyncPolicy::begin_round(std::span<tensor::Variable> /*params*/,
                             std::span<const tensor::Tensor> /*broadcast*/)
    const {}

ParamSet SyncPolicy::local_sync(std::span<tensor::Variable> params,
                                std::span<const tensor::Tensor> broadcast,
                                double alpha) const {
  ParamSet out = uninitialized_like(params);
  local_sync(params, broadcast, alpha, out);
  return out;
}

void SyncPolicy::import_state(std::vector<tensor::Tensor> state) {
  AVGPIPE_CHECK(state.empty(), "policy '" << name() << "' is stateless but "
                                          << state.size()
                                          << " state tensors were restored");
}

void SyncPolicy::make_broadcast(const ReferenceModel& reference,
                                ParamSet& out) const {
  const ParamSet& params = reference.params();
  AVGPIPE_CHECK(out.size() == params.size(),
                "broadcast/reference size mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) out[i].copy_from(params[i]);
}

ParamSet SyncPolicy::make_broadcast(const ReferenceModel& reference) const {
  ParamSet out = uninitialized_like(reference.params());
  make_broadcast(reference, out);
  return out;
}

void SyncPolicy::apply_rounds(ReferenceModel& reference,
                              const std::vector<std::vector<ParamSet>>& rounds) {
  for (const auto& round : rounds) apply_round(reference, round);
}

namespace {

/// Mean of the round's parameter sets into `dst`. n = 1 assigns exactly
/// (copy_from) rather than via zero + axpy, so a lone replica round-trips
/// bit-identically — the parity gate's foundation for BSP and BMUF.
void round_mean(ParamSet& dst, const std::vector<ParamSet>& round) {
  AVGPIPE_CHECK(!round.empty(), "empty round");
  for (const auto& r : round) {
    AVGPIPE_CHECK(r.size() == dst.size(), "round/reference size mismatch");
  }
  if (round.size() == 1) {
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i].copy_from(round[0][i]);
    }
    return;
  }
  const double inv_n = 1.0 / static_cast<double>(round.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i].zero_();
    for (const auto& r : round) dst[i].axpy_(1.0, r[i]);
    dst[i].scale_(inv_n);
  }
}

/// The paper's elastic averaging: pull/push against the broadcast, reference
/// accumulates the updates — exactly the pre-refactor behaviour.
class ElasticPolicy : public SyncPolicy {
 public:
  using SyncPolicy::SyncPolicy;
  std::string name() const override { return "elastic"; }

  void local_sync(std::span<tensor::Variable> params,
                  std::span<const tensor::Tensor> broadcast, double alpha,
                  std::span<tensor::Tensor> out) const override {
    elastic_pull(params, broadcast, alpha);
    difference_into(params, broadcast, out);
  }

  void apply_round(ReferenceModel& reference,
                   const std::vector<ParamSet>& round)
      REQUIRES(reference_capability()) override {
    for (const auto& update : round) reference.accumulate(update);
    reference.apply_accumulated(round.size());
  }

  void apply_rounds(ReferenceModel& reference,
                    const std::vector<std::vector<ParamSet>>& rounds)
      REQUIRES(reference_capability()) override {
    // Fused sweep: bit-identical to the sequential apply_round loop but one
    // pass over the reference weights per batch (XPipe inherits this too).
    reference.apply_round_batch(rounds);
  }
};

/// BSP model averaging: every round restarts each replica from the broadcast
/// and the reference becomes the plain mean of the trained replicas.
class BspPolicy : public SyncPolicy {
 public:
  using SyncPolicy::SyncPolicy;
  std::string name() const override { return "bsp"; }

  bool needs_begin() const override { return true; }

  void begin_round(std::span<tensor::Variable> params,
                   std::span<const tensor::Tensor> broadcast) const override {
    AVGPIPE_CHECK(params.size() == broadcast.size(),
                  "replica/broadcast size mismatch");
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i].value().copy_from(broadcast[i]);
    }
  }

  void local_sync(std::span<tensor::Variable> params,
                  std::span<const tensor::Tensor> /*broadcast*/,
                  double /*alpha*/,
                  std::span<tensor::Tensor> out) const override {
    // Ship the trained weights; the replica itself is untouched (it restarts
    // from the next broadcast anyway).
    AVGPIPE_CHECK(params.size() == out.size(), "replica/update size mismatch");
    for (std::size_t i = 0; i < params.size(); ++i) {
      out[i].copy_from(params[i].value());
    }
  }

  void apply_round(ReferenceModel& reference,
                   const std::vector<ParamSet>& round)
      REQUIRES(reference_capability()) override {
    round_mean(reference.mutable_params(), round);
  }
};

/// BMUF: BSP's restart protocol, but the reference filters the block delta
/// through `optim::BlockMomentum` and (optionally) broadcasts the Nesterov
/// restart point W + η·Δ.
class BmufPolicy : public BspPolicy {
 public:
  explicit BmufPolicy(SyncPolicyConfig config)
      : BspPolicy(config),
        momentum_(config.block_momentum,
                  config.block_lr > 0.0 ? config.block_lr
                                        : 1.0 - config.block_momentum) {}

  std::string name() const override { return "bmuf"; }

  void apply_round(ReferenceModel& reference,
                   const std::vector<ParamSet>& round)
      REQUIRES(reference_capability()) override {
    if (mean_.empty()) mean_ = reference.snapshot();  // shape donor
    round_mean(mean_, round);
    momentum_.filter_apply(reference.mutable_params(), mean_);
  }

  void make_broadcast(const ReferenceModel& reference, ParamSet& out) const
      REQUIRES(reference_capability()) override {
    SyncPolicy::make_broadcast(reference, out);
    if (config_.nesterov_restart) momentum_.add_restart_offset(out);
  }

  const optim::BlockMomentum& momentum() const
      REQUIRES(reference_capability()) {
    return momentum_;
  }

  std::vector<tensor::Tensor> export_state() const
      REQUIRES(reference_capability()) override {
    std::vector<tensor::Tensor> out;
    out.reserve(momentum_.delta().size());
    for (const auto& d : momentum_.delta()) out.push_back(d.clone());
    return out;
  }

  void import_state(std::vector<tensor::Tensor> state)
      REQUIRES(reference_capability()) override {
    momentum_.set_delta(std::move(state));
  }

 private:
  // The analysis proves these are only touched from reference-side hooks —
  // the data-race freedom DESIGN.md §13 used to assert by prose alone.
  optim::BlockMomentum momentum_ GUARDED_BY(reference_capability());
  ParamSet mean_ GUARDED_BY(reference_capability());  ///< block-mean scratch
};

/// XPipe: elastic coupling across replicas; the runtime layer additionally
/// runs each stage's compute on predicted weights (PredictionConfig wired by
/// AvgPipe::make_runtime from this policy's config).
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
