#include "core/elastic.hpp"

#include <algorithm>
#include <span>

#include "common/check.hpp"

namespace avgpipe::core {

ParamSet clone_values(const std::vector<tensor::Variable>& params) {
  ParamSet out;
  out.reserve(params.size());
  for (const auto& p : params) out.push_back(p.value().clone());
  return out;
}

ParamSet uninitialized_like(std::span<const tensor::Tensor> like) {
  ParamSet out;
  out.reserve(like.size());
  for (const auto& t : like) {
    out.push_back(tensor::Tensor::uninitialized(t.shape()));
  }
  return out;
}

ParamSet uninitialized_like(std::span<const tensor::Variable> like) {
  ParamSet out;
  out.reserve(like.size());
  for (const auto& p : like) {
    out.push_back(tensor::Tensor::uninitialized(p.value().shape()));
  }
  return out;
}

void add_scaled(ParamSet& dst, const ParamSet& src, double scale) {
  AVGPIPE_CHECK(dst.size() == src.size(), "param set size mismatch");
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i].axpy_(scale, src[i]);
}

void difference_into(std::span<const tensor::Variable> params,
                     std::span<const tensor::Tensor> reference,
                     std::span<tensor::Tensor> out) {
  AVGPIPE_CHECK(params.size() == reference.size() &&
                    params.size() == out.size(),
                "param set size mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    out[i].copy_from(params[i].value());
    out[i].axpy_(-1.0, reference[i]);
  }
}

ParamSet difference(const std::vector<tensor::Variable>& params,
                    const ParamSet& reference) {
  ParamSet out = uninitialized_like(params);
  difference_into(params, reference, out);
  return out;
}

double max_abs_diff(const ParamSet& a, const ParamSet& b) {
  AVGPIPE_CHECK(a.size() == b.size(), "param set size mismatch");
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, a[i].max_abs_diff(b[i]));
  }
  return m;
}

double default_alpha(std::size_t num_pipelines) {
  AVGPIPE_CHECK(num_pipelines >= 1, "need at least one pipeline");
  // α = 1/N per the paper; a single pipeline needs no pull (α = 1 would
  // reset the replica to the reference every iteration).
  if (num_pipelines == 1) return 0.0;
  return 1.0 / static_cast<double>(num_pipelines);
}

void elastic_pull(std::span<tensor::Variable> params,
                  std::span<const tensor::Tensor> reference, double alpha) {
  AVGPIPE_CHECK(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0,1]");
  AVGPIPE_CHECK(params.size() == reference.size(), "param set size mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    // x <- (1-alpha) x + alpha ref
    params[i].value().lerp_(reference[i], alpha);
  }
}

ReferenceModel::ReferenceModel(ParamSet initial)
    : params_(std::move(initial)) {
  accum_.reserve(params_.size());
  for (const auto& p : params_) accum_.emplace_back(p.shape());
}

void ReferenceModel::accumulate(const ParamSet& update) {
  add_scaled(accum_, update, 1.0);
  ++pending_;
}

std::size_t ReferenceModel::apply_accumulated(std::size_t n) {
  AVGPIPE_CHECK(n >= 1, "normalisation count must be positive");
  const std::size_t applied = pending_;
  const double scale = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    params_[i].axpy_(scale, accum_[i]);
    accum_[i].zero_();
  }
  pending_ = 0;
  return applied;
}

void ReferenceModel::apply_round_batch(
    const std::vector<std::vector<ParamSet>>& rounds) {
  AVGPIPE_CHECK(pending_ == 0,
                "batched apply must not interleave with a partial round");
  for (const auto& round : rounds) {
    AVGPIPE_CHECK(!round.empty(), "batched apply: empty round");
    for (const auto& update : round) {
      AVGPIPE_CHECK(update.size() == params_.size(),
                    "param set size mismatch");
    }
  }
  std::vector<std::span<const tensor::Scalar>> views;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto pv = params_[i].data();
    // Flatten the batch's update views for this parameter once; per round,
    // `scale * (u_1[j] + u_2[j] + …)` replays accumulate's `+= 1.0 * u[j]`
    // into a zeroed accumulator followed by apply's `+= scale * acc`, so
    // each round folds with the exact rounding of the sequential path.
    views.clear();
    for (const auto& round : rounds) {
      for (const auto& update : round) {
        AVGPIPE_CHECK(update[i].numel() == params_[i].numel(),
                      "update/reference numel mismatch");
        views.push_back(update[i].data());
      }
    }
    for (std::size_t j = 0; j < pv.size(); ++j) {
      tensor::Scalar v = pv[j];
      std::size_t u = 0;
      for (const auto& round : rounds) {
        tensor::Scalar acc = 0.0;
        for (std::size_t r = 0; r < round.size(); ++r) {
          acc += 1.0 * views[u++][j];
        }
        v += (1.0 / static_cast<double>(round.size())) * acc;
      }
      pv[j] = v;
    }
  }
}

ParamSet ReferenceModel::snapshot() const {
  ParamSet out;
  out.reserve(params_.size());
  for (const auto& p : params_) out.push_back(p.clone());
  return out;
}

}  // namespace avgpipe::core
