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

/// Deep-copy the values of a parameter list.
ParamSet clone_values(const std::vector<tensor::Variable>& params);
/// Deep copy of a parameter set (Tensor copies share storage, so a snapshot
/// or checkpoint capture must own its own).
ParamSet clone_set(const ParamSet& src);
/// Uninitialised tensors shaped like `like`, for callers that overwrite
/// every element (write-into buffers).
ParamSet uninitialized_like(std::span<const tensor::Tensor> like);
ParamSet uninitialized_like(std::span<const tensor::Variable> like);
/// dst[j] ← src[j] for every j (the one ParamSet copy; sizes must match).
/// The Variable form overwrites the values in place.
void copy_into(std::span<tensor::Tensor> dst,
               std::span<const tensor::Tensor> src);
void copy_into(std::span<tensor::Variable> dst,
               std::span<const tensor::Tensor> src);

/// out = params − reference, written into caller-owned tensors.
void difference_into(std::span<const tensor::Variable> params,
                     std::span<const tensor::Tensor> reference,
                     std::span<tensor::Tensor> out);
double max_abs_diff(const ParamSet& a, const ParamSet& b);

/// The default dependence factor α = 1/N.
double default_alpha(std::size_t num_pipelines);

/// Step ❷: pull live parameters toward a reference snapshot.
void elastic_pull(std::span<tensor::Variable> params,
                  std::span<const tensor::Tensor> reference, double alpha);

/// The reference model (steps ❹–❺). Not thread-safe by itself; in the
/// threaded system in avgpipe.hpp the driver thread owns it and plays the
/// paper's reference process.
class ReferenceModel {
 public:
  explicit ReferenceModel(ParamSet initial) : params_(std::move(initial)) {}

  /// Steps ❹–❺ over a *batch* of complete rounds — under sync_lag the
  /// reference process may have several rounds pending. Each round, oldest
  /// first, folds as the textbook accumulate-then-apply: acc = Σ 1.0·u over
  /// its updates in order, from zero, then p += (1/n)·acc. One sweep per
  /// parameter tensor runs every round on a register accumulator, so the
  /// reference weights are read and written once per batch.
  void apply_round_batch(const std::vector<std::vector<ParamSet>>& rounds);

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
