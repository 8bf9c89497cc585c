#include "core/sync_compression.hpp"

#include <string>

#include "common/check.hpp"
#include "common/env.hpp"

namespace avgpipe::core {

bool parse_sync_compression(std::string_view s, SyncCompression* out) {
  tensor::Codec codec;
  if (!tensor::codec_from_string(s, &codec)) return false;
  out->codec = codec;
  return true;
}

SyncCompression sync_compression_from_env(SyncCompression configured) {
  const std::string env = common::env_string("AVGPIPE_SYNC_COMPRESS", "");
  if (env.empty()) return configured;
  SyncCompression forced = configured;
  AVGPIPE_CHECK(parse_sync_compression(env, &forced),
                "AVGPIPE_SYNC_COMPRESS='"
                    << env << "' (expected off, none, fp16 or int8)");
  return forced;
}

SyncCodec::Stats SyncCodec::transmit(ParamSet& params) {
  Stats stats;
  for (const auto& t : params) {
    const std::size_t n = t.numel();
    stats.raw_bytes += n * sizeof(tensor::Scalar);
    stats.wire_bytes += tensor::codec_wire_bytes(config_.codec, n);
  }
  if (!enabled()) return stats;
  if (residuals_.size() != params.size()) {
    AVGPIPE_CHECK(residuals_.empty(),
                  "sync codec: stream went from " << residuals_.size()
                                                  << " tensors to "
                                                  << params.size());
    residuals_.reserve(params.size());
    for (const auto& t : params) {
      residuals_.push_back(tensor::Tensor::zeros(t.shape()));
    }
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto xv = params[i].data();
    auto rv = residuals_[i].data();
    AVGPIPE_CHECK(rv.size() == xv.size(),
                  "sync codec: tensor " << i << " changed size");
    // Fold the carried error in, remember the compensated payload, then
    // keep the part the codec dropped: r' = (x + r) − dequant(quant(x + r)).
    for (std::size_t j = 0; j < xv.size(); ++j) {
      xv[j] += rv[j];
      rv[j] = xv[j];
    }
    tensor::codec_roundtrip(config_.codec, xv.data(), xv.size());
    for (std::size_t j = 0; j < xv.size(); ++j) rv[j] -= xv[j];
  }
  return stats;
}

}  // namespace avgpipe::core
