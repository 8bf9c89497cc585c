#include "core/elastic.hpp"

#include <algorithm>
#include <span>

#include "common/check.hpp"

namespace avgpipe::core {

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

void fold_rounds(std::span<tensor::Tensor> dst,
                 std::span<const std::vector<ParamSet>> rounds, bool assign) {
  std::vector<std::span<const tensor::Scalar>> u;
  for (std::size_t first = 0, last = 0; first < dst.size(); first = last) {
    // The shard every update shares with dst, and each update's span of it.
    last = tensor::shard_end(dst, first);
    for (const auto& round : rounds) {
      AVGPIPE_CHECK(!round.empty(), "fold of an empty round");
      for (const ParamSet& update : round) {
        AVGPIPE_CHECK(update.size() == dst.size(),
                      "update/reference size mismatch");
        last = std::min(last, tensor::shard_end(update, first));
      }
    }
    const auto pv = tensor::run_span(dst, first, last);
    u.clear();
    for (const auto& round : rounds) {
      for (const ParamSet& update : round) {
        u.push_back(tensor::run_span(std::span(update), first, last));
        AVGPIPE_CHECK(u.back().size() == pv.size(),
                      "update/reference numel mismatch");
      }
    }
    for (std::size_t j = 0; j < pv.size(); ++j) {
      tensor::Scalar v = assign ? 0.0 : pv[j];
      std::size_t k = 0;
      for (const auto& round : rounds) {
        tensor::Scalar acc = 0.0;
        for (std::size_t r = 0; r < round.size(); ++r) acc += 1.0 * u[k++][j];
        v += (1.0 / static_cast<double>(round.size())) * acc;
      }
      pv[j] = v;
    }
  }
}

}  // namespace avgpipe::core
