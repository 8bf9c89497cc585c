#pragma once

/// \file state.hpp
/// The full durable training state of an AvgPipe system, and its record
/// codec over checkpoint files.
///
/// `TrainState` is the closure of everything the PR-6 sync-policy layer can
/// mutate across a round boundary: the reference model, the policy's own
/// reference-side state (BMUF momentum Δ), the published broadcast, each
/// pipeline's parameters plus per-stage runtime state (optimizer slots and
/// the XPipe EMA predictors), and every named RNG stream. Restoring it —
/// plus re-feeding the same batches — reproduces the uninterrupted run
/// bit-for-bit, which is the property `ckpt_test` gates on for all four
/// policies.
///
/// The capture/restore entry points live on `core::AvgPipe` (it owns the
/// thread discipline); this file only defines the state bag and its
/// serialization. Kept deliberately free of a core dependency (policy kind
/// is a raw byte here) so the checkpoint layer sits below core in the link
/// order.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "runtime/pipeline_runtime.hpp"
#include "tensor/tensor.hpp"

namespace avgpipe::ckpt {

/// One replica pipeline's durable state. A dead pipeline still checkpoints
/// (`alive = false`, empty tensors): on restore it stays detached and the
/// elastic driver's rejoin path re-initialises it from the broadcast.
struct PipelineState {
  bool alive = true;
  std::vector<tensor::Tensor> params;
  std::vector<runtime::StageState> stages;
  /// Error-feedback residuals of this pipeline's sync push codec (empty
  /// when sync compression is off or nothing was transmitted yet).
  std::vector<tensor::Tensor> residuals;
};

/// The complete durable state of one training run at a round boundary.
struct TrainState {
  long step = 0;             ///< driver iterations completed
  std::uint8_t policy_kind = 0;  ///< core::SyncPolicyKind, as a raw byte
  double alpha = 0.0;        ///< elastic coupling strength at capture time
  /// The sync-transport codec active at capture (tensor::Codec as a raw
  /// byte; 0 = off). Residuals only restore onto a matching codec.
  std::uint8_t sync_codec = 0;
  std::vector<tensor::Tensor> reference;     ///< reference model parameters
  std::vector<tensor::Tensor> policy_state;  ///< SyncPolicy::export_state()
  std::vector<tensor::Tensor> broadcast;     ///< published round broadcast
  /// Error-feedback residuals of the broadcast codec (empty when off).
  std::vector<tensor::Tensor> broadcast_residual;
  std::vector<PipelineState> pipelines;
  /// Named RNG engine snapshots (Rng::save_state), e.g. data-order streams.
  std::vector<std::pair<std::string, std::string>> rng_streams;
};

/// Encode `state` as records on `writer` (meta / reference / policy /
/// broadcast / pipeline.<i> / rng, plus residual.broadcast / residual.<i>
/// when `sync_codec` is non-zero — an uncompressed run's checkpoint stays
/// byte-identical to the pre-compression format).
void encode(const TrainState& state, CheckpointWriter& writer);

/// Decode a state previously written by `encode`. Throws avgpipe::Error on
/// missing records or malformed payloads.
TrainState decode(const CheckpointReader& reader);

}  // namespace avgpipe::ckpt
