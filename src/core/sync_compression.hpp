#pragma once

/// \file sync_compression.hpp
/// Lossy compression of the elastic sync transport, with error feedback.
///
/// Compression is modelled at the *transmission boundary*: a `SyncCodec`
/// owns one direction of one stream (a replica's pushes, or the reference's
/// broadcast pulls) and `transmit()` replaces each parameter set in place
/// with its quantize→dequantize round trip — exactly the values the far end
/// of a compressed wire would decode. The transport between the boundaries
/// (the update rings, `apply_round_batch`, the broadcast) keeps moving plain f64
/// tensors, so every policy and the whole apply machinery run unchanged;
/// only codec-rounded values ever cross a boundary, which is precisely the
/// semantics of a real compressed link.
///
/// Error feedback (EF-SGD style, always on): each codec keeps a residual
/// r = original − dequantized per transmitted tensor, in the payload's shard
/// layout, added back to the next payload before it is quantized, so
/// quantization error accumulates into later transmissions instead of being
/// lost — the standard fix that keeps lossy sync converging. Residuals are durable state: they ride along in checkpoints
/// (`ckpt::TrainState`) so a restored run resumes bit-identically.
///
/// `Codec::kNone` short-circuits `transmit` into a no-op, which is why the
/// `off` configuration preserves every existing bit-parity gate exactly.

#include <cstdint>
#include <string_view>

#include "core/elastic.hpp"
#include "tensor/quantize.hpp"

namespace avgpipe::core {

/// Sync-transport compression configuration (AvgPipeConfig::sync_compression,
/// env override AVGPIPE_SYNC_COMPRESS={off,fp16,int8}).
struct SyncCompression {
  tensor::Codec codec = tensor::Codec::kNone;

  bool enabled() const { return codec != tensor::Codec::kNone; }
};

/// Parse "off" / "none" / "fp16" / "int8". Returns false on anything else.
bool parse_sync_compression(std::string_view s, SyncCompression* out);

/// Resolve `configured` against the AVGPIPE_SYNC_COMPRESS environment
/// variable: when the variable is set (and parses) it wins, so CI can force
/// the compressed path through binaries built with default configs. Tests
/// that *require* a specific mode should bypass this and set the config
/// directly on the component under test.
SyncCompression sync_compression_from_env(SyncCompression configured);

/// One direction of one compressed stream: applies the codec round trip to
/// each transmitted ParamSet and carries that stream's EF residuals.
/// Not thread-safe; each instance has a single owning thread at a time
/// (a stage thread for a push stream, the driver for the broadcast).
class SyncCodec {
 public:
  struct Stats {
    std::uint64_t raw_bytes = 0;   ///< payload size as raw f64
    std::uint64_t wire_bytes = 0;  ///< payload size under the codec
  };

  SyncCodec() = default;
  explicit SyncCodec(SyncCompression config) : config_(config) {}

  bool enabled() const { return config_.enabled(); }

  /// Degrade `params` in place to what the far end of the wire would decode
  /// (adding the carried residual first, then re-deriving it). No-op when
  /// the codec is off — then Stats reports raw == wire. Tensor count and
  /// shapes must stay stable across calls (residuals are per-position).
  /// The residual passes run once per shard; quantization runs per tensor.
  Stats transmit(std::span<tensor::Tensor> params);

  /// EF residual accumulators, one per transmitted tensor: zeros in the
  /// first lossy payload's layout unless set before. Exposed for checkpoint
  /// capture/restore; an owner may hand the stream views of its own buffer.
  const ParamSet& residuals() const { return residuals_; }
  ParamSet& residuals() { return residuals_; }

 private:
  SyncCompression config_;
  ParamSet residuals_;
};

}  // namespace avgpipe::core
