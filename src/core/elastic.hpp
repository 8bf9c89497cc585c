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
/// Uninitialised tensors shaped like `like`, for callers that overwrite
/// every element (write-into buffers).
ParamSet uninitialized_like(std::span<const tensor::Tensor> like);
ParamSet uninitialized_like(std::span<const tensor::Variable> like);

/// Elementwise ops over parameter sets (shapes must match pairwise).
void add_scaled(ParamSet& dst, const ParamSet& src, double scale);
/// out = params − reference, written into caller-owned tensors.
void difference_into(std::span<const tensor::Variable> params,
                     std::span<const tensor::Tensor> reference,
                     std::span<tensor::Tensor> out);
ParamSet difference(const std::vector<tensor::Variable>& params,
                    const ParamSet& reference);
double max_abs_diff(const ParamSet& a, const ParamSet& b);

/// The default dependence factor α = 1/N.
double default_alpha(std::size_t num_pipelines);

/// Step ❷: pull live parameters toward a reference snapshot.
void elastic_pull(std::span<tensor::Variable> params,
                  std::span<const tensor::Tensor> reference, double alpha);

/// The reference model (steps ❹–❺). Not thread-safe by itself; the
/// asynchronous system in avgpipe.hpp serialises access through a queue,
/// matching the paper's separate reference process per GPU.
class ReferenceModel {
 public:
  explicit ReferenceModel(ParamSet initial);

  /// Step ❹: fold one pipeline's local update into the accumulator.
  void accumulate(const ParamSet& update);
  /// Step ❺: once every pipeline has reported, normalise by `n` and apply.
  /// Returns the number of updates that were folded in.
  std::size_t apply_accumulated(std::size_t n);
  /// Fused ❹+❺ over a *batch* of complete rounds — the asynchronous
  /// reference process may find several rounds queued. For each parameter
  /// tensor a single sweep folds every round's updates and applies them in
  /// arrival order, performing exactly the floating-point operations of the
  /// per-round accumulate…apply_accumulated(round.size()) loop in the same
  /// order, so the result is bit-identical while the reference weights are
  /// read and written once instead of once per round (and the accumulator is
  /// never touched). Must not interleave with a partially accumulated round.
  void apply_round_batch(const std::vector<std::vector<ParamSet>>& rounds);

  const ParamSet& params() const { return params_; }
  /// Direct mutable access for sync policies that replace (rather than
  /// increment) the reference — BSP/BMUF write the block mean / filtered
  /// update straight into the weights. Same serialisation rules as the
  /// accumulate/apply path.
  ParamSet& mutable_params() { return params_; }
  ParamSet snapshot() const;
  std::size_t pending() const { return pending_; }

 private:
  ParamSet params_;
  ParamSet accum_;
  std::size_t pending_ = 0;
};

}  // namespace avgpipe::core
