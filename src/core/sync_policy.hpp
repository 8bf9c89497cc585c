#pragma once

/// \file sync_policy.hpp
/// Pluggable model-coupling rules for AvgPipe's replica/reference protocol.
///
/// The paper's elastic averaging is one point in a family of asynchronous
/// model-coupling rules; its production siblings (kaldi-aslp's BSP model
/// averaging and BMUF) and XPipe's weight prediction attack the same
/// staleness problem from different angles. A `SyncPolicy` factors the rule
/// out of `AvgPipe` so all of them run on the identical
/// replica/reference machinery — same stage threads, same message queues,
/// same fault handling — and differ only in four hooks:
///
///   begin_round(shard, broadcast)        stage, before training a batch
///   local_sync(shard, broadcast, out)    stage, after its optimizer update
///   apply_round(reference, round)        reference process, once per round
///   make_broadcast(reference, out)       reference process, after each apply
///
/// The replica side is co-partitioned with the pipeline (paper §3): each
/// stage thread runs the hooks over its own *shard* — the stage's parameters
/// and the matching slices of the broadcast and of the round's update — and
/// writes into caller-owned buffers, so a steady-state round allocates
/// nothing. Whole-model calls pass the full lists.
///
/// Concurrency contract (enforced by constness, documented in DESIGN.md §13):
/// the replica-side hooks are called concurrently from the N·K stage threads
/// on disjoint shards and must not mutate policy state — they are `const`
/// and operate only on their shard plus an immutable broadcast snapshot.
/// The reference-side hooks own all mutable policy state (e.g. BMUF's block
/// momentum) and are serialised by the caller: under `reference_mutex_` in
/// `AvgPipe`. `make_broadcast` is const but reads reference-side state, so it
/// shares that serialisation.
///
/// Staleness semantics per policy:
/// * elastic  — replicas never reset; each pull dilutes toward a broadcast
///              that may be up to sync_lag applies stale (paper §3.2).
/// * bsp      — replicas restart every round from the broadcast; under
///              sync_lag > 0 the restart point itself may be stale, which is
///              the only staleness BSP admits.
/// * bmuf     — BSP's restart, but the broadcast is the CBM Nesterov restart
///              point W(t) + η·Δ(t), and the reference applies the filtered
///              update Δ(t) = η·Δ(t−1) + ζ·(mean(x_i) − W(t−1)).
/// * xpipe    — elastic coupling; additionally each pipeline stage runs its
///              forward/backward on predicted weights ŵ = w + lookahead·Δ̂
///              (runtime::PredictionConfig), countering in-pipeline staleness
///              rather than cross-replica staleness.
///
/// Every policy has a *degenerate configuration* (`degenerate_config`) in
/// which, at N = 1, its trajectory is bit-identical to serial SGD — the
/// parity gate that makes cross-policy accuracy numbers comparable.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "core/elastic.hpp"
#include "optim/optimizer.hpp"

namespace avgpipe::core {

/// The phantom capability standing for "I am serialised with the reference
/// process". Every reference-side policy hook REQUIRES it; a caller asserts
/// it with a `common::RoleGuard` whose justification is real serialisation —
/// holding `reference_mutex_` in the threaded system, or the single-threaded
/// phase of construction. One global
/// capability (not per-policy) because the contract is about the reference
/// *process*, which is unique per address space in this in-proc system.
common::Role& reference_capability();

enum class SyncPolicyKind : std::uint8_t {
  kElastic = 0,  ///< the paper's elastic averaging (default)
  kBsp,          ///< BSP model averaging: restart from mean every round
  kBmuf,         ///< blockwise model-update filtering (Chen & Huo 2016)
  kXPipe,        ///< elastic + XPipe-style weight prediction in the runtime
};

std::string to_string(SyncPolicyKind kind);

struct SyncPolicyConfig {
  SyncPolicyKind kind = SyncPolicyKind::kElastic;
  // BMUF: block momentum η, block lr ζ (0 → the classic 1−η default, which
  // puts the effective rate λ = ζ/(1−η) exactly at the stability bound), and
  // whether the broadcast is the Nesterov restart point W + η·Δ.
  double block_momentum = 0.45;
  double block_lr = 0.0;
  bool nesterov_restart = true;
  // XPipe: ŵ = w + lookahead·Δ̂ at batch start, Δ̂ an EMA (weight `beta` on
  // the old value) of realised per-batch updates. lookahead = 0 disables.
  double prediction_lookahead = 1.0;
  double prediction_beta = 0.0;
};

/// The configuration in which `kind` must be bit-identical to serial SGD at
/// N = 1: elastic/xpipe rely on α = 0 (the driver's 1/N default), BMUF on
/// η = 0, ζ = 1 (exact-assignment fast path), XPipe additionally on
/// lookahead = 0, BSP on exact mean assignment at n = 1.
SyncPolicyConfig degenerate_config(SyncPolicyKind kind);

class SyncPolicy {
 public:
  explicit SyncPolicy(SyncPolicyConfig config) : config_(config) {}
  virtual ~SyncPolicy() = default;

  SyncPolicyKind kind() const { return config_.kind; }
  const SyncPolicyConfig& config() const { return config_; }
  virtual std::string name() const = 0;

  // -- replica side: called concurrently from the stage threads, one shard
  //    each; must not touch policy state (const) ------------------------------

  /// Whether replicas must be reset from the broadcast before each round.
  virtual bool needs_begin() const { return false; }

  /// Reset the shard `params` from its slice of the round's broadcast
  /// (BSP/BMUF). Default: no-op.
  virtual void begin_round(std::span<tensor::Variable> params,
                           std::span<const tensor::Tensor> broadcast) const;

  /// Post-training step on a shard: transform `params` (elastic pull) and
  /// write the shard's contribution to the round into `out` (elastic update
  /// or a copy of the trained weights). `out` is caller-owned, shaped like
  /// `params`, and fully overwritten.
  virtual void local_sync(std::span<tensor::Variable> params,
                          std::span<const tensor::Tensor> broadcast,
                          double alpha,
                          std::span<tensor::Tensor> out) const = 0;

  /// Whole-model form of `local_sync` returning a freshly allocated update.
  ParamSet local_sync(std::span<tensor::Variable> params,
                      std::span<const tensor::Tensor> broadcast,
                      double alpha) const;

  // -- reference side: serialised by the caller, which asserts that
  //    serialisation by holding `reference_capability()` ----------------------

  /// Fold one round of `local_sync` results into the reference model.
  /// `round` is ordered by replica index (deterministic).
  virtual void apply_round(ReferenceModel& reference,
                           const std::vector<ParamSet>& round)
      REQUIRES(reference_capability()) = 0;

  /// Fold a *batch* of queued rounds, oldest first — the asynchronous
  /// reference process drains its update queue and applies everything it
  /// found in one critical section. Default: sequential `apply_round` per
  /// round, so the semantics are identical by construction for any policy.
  /// The elastic policies override this with a fused sweep
  /// (`ReferenceModel::apply_round_batch`) that is bit-identical to the
  /// sequential loop but touches each reference weight once per batch.
  virtual void apply_rounds(ReferenceModel& reference,
                            const std::vector<std::vector<ParamSet>>& rounds)
      REQUIRES(reference_capability());

  /// Write the snapshot replicas pull/reset against next round into `out`
  /// (shaped like the reference) — also what a rejoining pipeline restores
  /// from, so a policy with reference-side state (BMUF) bakes its
  /// reconstruction (the Nesterov restart point) in here. Const but reads
  /// reference-side state, hence the shared serialisation.
  virtual void make_broadcast(const ReferenceModel& reference,
                              ParamSet& out) const
      REQUIRES(reference_capability());

  /// Value-returning form of `make_broadcast`.
  ParamSet make_broadcast(const ReferenceModel& reference) const
      REQUIRES(reference_capability());

  // -- durable state (checkpoint layer, src/ckpt) -----------------------------

  /// Reference-side mutable policy state to persist across a crash (BMUF:
  /// the momentum Δ(t); stateless policies: empty). Shares apply_round's
  /// serialisation. XPipe's EMA predictors are *runtime* state and are
  /// persisted per stage (`runtime::StageState`), not here.
  virtual std::vector<tensor::Tensor> export_state() const
      REQUIRES(reference_capability()) {
    return {};
  }

  /// Restore a snapshot produced by `export_state` on a same-kind policy.
  /// Throws avgpipe::Error if state is offered to a stateless policy.
  virtual void import_state(std::vector<tensor::Tensor> state)
      REQUIRES(reference_capability());

 protected:
  SyncPolicyConfig config_;
};

std::unique_ptr<SyncPolicy> make_sync_policy(const SyncPolicyConfig& config);

/// All kinds, in a stable order (for sweeps and parameterised tests).
std::vector<SyncPolicyKind> all_sync_policies();

}  // namespace avgpipe::core
