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

SyncCodec::Stats SyncCodec::transmit(std::span<tensor::Tensor> params) {
  Stats stats;
  for (const auto& t : params) {
    const std::size_t n = t.numel();
    stats.raw_bytes += n * sizeof(tensor::Scalar);
    stats.wire_bytes += tensor::codec_wire_bytes(config_.codec, n);
  }
  if (!enabled()) return stats;
  if (residuals_.empty()) residuals_ = tensor::zeros_like(params);
  AVGPIPE_CHECK(residuals_.size() == params.size(),
                "sync codec: stream went from " << residuals_.size()
                                                << " tensors to "
                                                << params.size());
  // Fold the carried error in and remember the compensated payload, round
  // trip it view by view (an int8 block never straddles two tensors), then
  // keep the part the codec dropped: r' = (x + r) − dequant(quant(x + r)).
  // The gaps between views stay zero.
  tensor::for_each_shard(
      [](std::span<tensor::Scalar> x, std::span<tensor::Scalar> r) {
        for (std::size_t j = 0; j < x.size(); ++j) {
          x[j] += r[j];
          r[j] = x[j];
        }
      },
      params, residuals_);
  for (auto& t : params) {
    tensor::codec_roundtrip(config_.codec, t.data().data(), t.numel());
  }
  tensor::for_each_shard(
      [](std::span<const tensor::Scalar> x, std::span<tensor::Scalar> r) {
        for (std::size_t j = 0; j < x.size(); ++j) r[j] -= x[j];
      },
      params, residuals_);
  return stats;
}

}  // namespace avgpipe::core
