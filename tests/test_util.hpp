#pragma once

/// \file test_util.hpp
/// Shared helpers for the test suite: numeric gradient checking, small
/// fixtures, and the textbook AvgPipe round used as a trajectory oracle.

#include <cmath>
#include <functional>
#include <memory>
#include <span>
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

/// Multi-head self-attention over a packed qkv [B, S, 3D] computed the way
/// the layer did before it became one node: every head copied out into
/// contiguous q/k/v buffers (k also as an explicit transpose), a GEMM on the
/// copies, softmax_rows, the mask drawn like the Dropout layer (one
/// Bernoulli per weight in (batch, head, row, col) order), and the
/// backward's products on the same copies. The oracle for
/// tensor::multi_head_attention: `out` for the forward and `grad_qkv` for
/// a backward seeded with `grad_out`.
struct AttentionResult {
  Tensor out, grad_qkv;
};

inline AttentionResult reference_attention(const Tensor& qkv,
                                           std::size_t heads, double p,
                                           Rng& rng, bool training,
                                           const Tensor& grad_out) {
  const std::size_t batch = qkv.dim(0), seq = qkv.dim(1), ld = qkv.dim(2);
  const std::size_t d = ld / 3, dh = d / heads, tile = seq * seq;
  const Scalar scale = 1.0 / std::sqrt(static_cast<Scalar>(dh));
  const bool drop = training && p > 0.0;
  std::vector<Scalar> mask(batch * heads * tile, 1.0);
  if (drop) {
    const Scalar keep = 1.0 - p;
    for (auto& m : mask) m = rng.bernoulli(keep) ? 1.0 / keep : 0.0;
  }
  const auto x = qkv.data();
  const auto go = grad_out.data();
  AttentionResult r{Tensor({batch, seq, d}), Tensor({batch, seq, ld})};
  auto out = r.out.data();
  auto gqkv = r.grad_qkv.data();
  // Head h of part `part` (0 q, 1 k, 2 v) of batch b, as a contiguous
  // [seq, dh] copy, and the inverse scatter.
  const auto gather = [&](std::span<const Scalar> src, std::size_t width,
                          std::size_t col0, std::size_t b) {
    std::vector<Scalar> h(seq * dh);
    for (std::size_t i = 0; i < seq; ++i) {
      for (std::size_t j = 0; j < dh; ++j) {
        h[i * dh + j] = src[(b * seq + i) * width + col0 + j];
      }
    }
    return h;
  };
  const auto scatter = [&](const std::vector<Scalar>& h, std::span<Scalar> dst,
                           std::size_t width, std::size_t col0,
                           std::size_t b) {
    for (std::size_t i = 0; i < seq; ++i) {
      for (std::size_t j = 0; j < dh; ++j) {
        dst[(b * seq + i) * width + col0 + j] = h[i * dh + j];
      }
    }
  };
  const auto transpose = [](const std::vector<Scalar>& a, std::size_t rows,
                            std::size_t cols) {
    std::vector<Scalar> t(a.size());
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) t[j * rows + i] = a[i * cols + j];
    }
    return t;
  };
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t h = 0; h < heads; ++h) {
      const auto q = gather(x, ld, h * dh, b);
      const auto k = gather(x, ld, d + h * dh, b);
      const auto v = gather(x, ld, 2 * d + h * dh, b);
      const auto kt = transpose(k, seq, dh);
      Tensor scores({seq, seq});
      tensor::gemm(q.data(), kt.data(), scores.data().data(), seq, seq, dh,
                   false, false, false);
      for (auto& s : scores.data()) s *= scale;
      const Tensor y = tensor::softmax_rows(Variable(scores)).value();
      const Scalar* mk = mask.data() + (b * heads + h) * tile;
      std::vector<Scalar> wd(tile);
      for (std::size_t i = 0; i < tile; ++i) {
        wd[i] = drop ? y[i] * mk[i] : y[i];
      }
      std::vector<Scalar> ctx(seq * dh);
      tensor::gemm(wd.data(), v.data(), ctx.data(), seq, dh, seq, false,
                   false, false);
      scatter(ctx, out, d, h * dh, b);

      const auto g = gather(go, d, h * dh, b);
      std::vector<Scalar> gw(tile), dv(seq * dh), dq(seq * dh),
          dkt(dh * seq);
      tensor::gemm(g.data(), v.data(), gw.data(), seq, seq, dh, false, true,
                   false);
      tensor::gemm(wd.data(), g.data(), dv.data(), seq, dh, seq, true, false,
                   false);
      if (drop) {
        for (std::size_t i = 0; i < tile; ++i) gw[i] = gw[i] * mk[i];
      }
      for (std::size_t i = 0; i < seq; ++i) {
        Scalar dot = 0.0;
        for (std::size_t j = 0; j < seq; ++j) {
          const Scalar t = gw[i * seq + j] * y[i * seq + j];
          gw[i * seq + j] = t;
          dot += t;
        }
        for (std::size_t j = 0; j < seq; ++j) {
          gw[i * seq + j] -= y[i * seq + j] * dot;
        }
      }
      for (auto& s : gw) s = s * scale;
      tensor::gemm(gw.data(), kt.data(), dq.data(), seq, dh, seq, false, true,
                   false);
      tensor::gemm(q.data(), gw.data(), dkt.data(), dh, seq, seq, true, false,
                   false);
      scatter(dq, gqkv, ld, h * dh, b);
      scatter(transpose(dkt, dh, seq), gqkv, ld, d + h * dh, b);
      scatter(dv, gqkv, ld, 2 * d + h * dh, b);
    }
  }
  return r;
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
