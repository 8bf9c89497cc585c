#pragma once

/// \file test_util.hpp
/// Shared helpers for the test suite: numeric gradient checking, small
/// fixtures, and the textbook AvgPipe round used as a trajectory oracle.

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "core/sync_compression.hpp"
#include "core/sync_policy.hpp"
#include "runtime/pipeline_runtime.hpp"
#include "runtime/semantics.hpp"
#include "tensor/ops.hpp"

namespace avgpipe::testutil {

using tensor::Scalar;
using tensor::Tensor;
using tensor::Variable;

/// Numeric-vs-autograd gradient check.
///
/// `make_loss` must rebuild the scalar loss from scratch on every call
/// (define-by-run), reading the current values of `params`. Returns the
/// maximum elementwise absolute error between the autograd gradient and a
/// central-difference estimate across all parameters.
inline double max_grad_error(const std::function<Variable()>& make_loss,
                             std::vector<Variable> params,
                             Scalar eps = 1e-5) {
  // Autograd pass.
  for (auto& p : params) p.zero_grad();
  Variable loss = make_loss();
  loss.backward();
  std::vector<Tensor> analytic;
  analytic.reserve(params.size());
  for (auto& p : params) analytic.push_back(p.grad().clone());

  double worst = 0.0;
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    auto values = params[pi].value().data();
    for (std::size_t i = 0; i < values.size(); ++i) {
      const Scalar saved = values[i];
      values[i] = saved + eps;
      const Scalar up = make_loss().value()[0];
      values[i] = saved - eps;
      const Scalar down = make_loss().value()[0];
      values[i] = saved;
      const Scalar numeric = (up - down) / (2.0 * eps);
      worst = std::max(worst,
                       std::fabs(numeric - analytic[pi].data()[i]));
    }
  }
  return worst;
}

/// The paper's §3.2 round written out serially: the oracle for a sync-mode
/// `core::AvgPipe`. Each replica is a `runtime::SyncTrainer`. Per round,
/// every replica resets from the broadcast (`begin_round`), trains its batch
/// and ships `local_sync` through its push codec. The reference then applies
/// the round and publishes a new broadcast through the broadcast codec.
class TextbookAvgPipe {
 public:
  TextbookAvgPipe(const nn::ModelFactory& factory,
                  const runtime::OptimizerFactory& make_optimizer,
                  std::size_t n, core::SyncPolicyConfig sync = {},
                  core::SyncCompression compression = {})
      : policy_(core::make_sync_policy(sync)),
        alpha_(core::default_alpha(n)),
        broadcast_codec_(compression) {
    for (std::size_t i = 0; i < n; ++i) {
      nn::Sequential model = factory(1234);
      replicas_.emplace_back(model, make_optimizer(model.parameters()));
      push_codecs_.emplace_back(compression);
    }
    reference_ = std::make_unique<core::ReferenceModel>(
        core::clone_values(replicas_[0].eval_model().parameters()));
    common::RoleGuard role(core::reference_capability());  // single-threaded
    publish();
  }

  void train_iteration(const std::vector<data::Batch>& batches) {
    common::RoleGuard role(core::reference_capability());  // single-threaded
    std::vector<core::ParamSet> round;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      auto params = replicas_[i].eval_model().parameters();
      policy_->begin_round(params, broadcast_);
      replicas_[i].train_batch(batches.at(i));
      round.push_back(policy_->local_sync(params, broadcast_, alpha_));
      push_codecs_[i].transmit(round.back());
    }
    policy_->apply_round(*reference_, round);
    publish();
  }

  const core::ParamSet& reference() const { return reference_->params(); }
  /// What a replica would restore from now (mirrors
  /// `AvgPipe::broadcast_snapshot`: untransmitted).
  core::ParamSet broadcast_snapshot() const {
    common::RoleGuard role(core::reference_capability());  // single-threaded
    return policy_->make_broadcast(*reference_);
  }

 private:
  void publish() REQUIRES(core::reference_capability()) {
    broadcast_ = policy_->make_broadcast(*reference_);
    broadcast_codec_.transmit(broadcast_);
  }

  std::vector<runtime::SyncTrainer> replicas_;
  std::unique_ptr<core::SyncPolicy> policy_;
  std::unique_ptr<core::ReferenceModel> reference_;
  double alpha_;
  core::SyncCodec broadcast_codec_;
  std::vector<core::SyncCodec> push_codecs_;
  core::ParamSet broadcast_;
};

}  // namespace avgpipe::testutil
