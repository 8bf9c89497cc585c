#pragma once

/// \file elastic.hpp
/// The elastic-averaging primitives of the AvgPipe framework (paper §3.2).
///
/// AvgPipe trains N parallel models ("parallel pipelines"), each with an
/// arbitrary user-chosen optimizer, and keeps a *reference model* at their
/// centre. Per iteration, each pipeline:
///   ❶ computes a local update on its own batch via its optimizer,
///   ❷ dilutes its weights toward the reference, x_i ← (1-α)·x_i + α·ref,
///   ❸ ships its local update to the reference process asynchronously.
/// The reference process:
///   ❹ accumulates the N local updates,
///   ❺ normalises and applies them, keeping ref at the average of the
///     parallel models.
///
/// With update_i := x_i(after pull) − ref(used for the pull), applying
/// ref += (1/N)·Σ update_i yields exactly ref' = mean_i x_i — the invariant
/// "each weight in the reference model stays the average of the
/// corresponding weights in parallel models". α defaults to 1/N (the paper's
/// empirical choice, after Crossbow).

#include <span>
#include <vector>

#include "tensor/autograd.hpp"

namespace avgpipe::core {

using ParamSet = std::vector<tensor::Tensor>;
using tensor::clone_set, tensor::clone_values, tensor::copy_into,
    tensor::values_of;

double max_abs_diff(const ParamSet& a, const ParamSet& b);

/// The default dependence factor α = 1/N.
double default_alpha(std::size_t num_pipelines);

/// The fold: for each of `rounds`, oldest first, per element
/// acc = Σ 1.0·u over the round's updates in order, from zero, then
/// v += (1/n)·acc, v starting from `dst` or, when `assign`, from 0. One
/// sweep per shard runs every round on a register accumulator. Every update
/// must have `dst`'s layout.
void fold_rounds(std::span<tensor::Tensor> dst,
                 std::span<const std::vector<ParamSet>> rounds, bool assign);

/// The reference model (steps ❹–❺). Not thread-safe by itself; in the
/// threaded system in avgpipe.hpp the driver thread owns it and plays the
/// paper's reference process.
class ReferenceModel {
 public:
  explicit ReferenceModel(ParamSet initial) : params_(std::move(initial)) {}

  /// Steps ❹–❺ over a *batch* of complete rounds — under sync_lag the
  /// reference process may have several rounds pending. Each round, oldest
  /// first, folds as the textbook accumulate-then-apply (fold_rounds), so
  /// the reference weights are read and written once per batch.
  void apply_round_batch(const std::vector<std::vector<ParamSet>>& rounds) {
    fold_rounds(params_, rounds, false);
  }

  const ParamSet& params() const { return params_; }
  /// Direct mutable access for sync policies that replace (rather than
  /// increment) the reference — BSP/BMUF write the block mean / filtered
  /// update straight into the weights. Same serialisation rules as
  /// apply_round_batch.
  ParamSet& mutable_params() { return params_; }
  ParamSet snapshot() const { return clone_set(params_); }

 private:
  ParamSet params_;
};

}  // namespace avgpipe::core
