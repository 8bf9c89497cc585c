#include "ckpt/state.hpp"

namespace avgpipe::ckpt {

namespace {

std::string pipeline_record(std::size_t i) {
  return "pipeline." + std::to_string(i);
}

std::string residual_record(std::size_t i) {
  return "residual." + std::to_string(i);
}

/// Encoded bytes of a tensor list: u32 count, then per tensor a u32 rank,
/// u64 dims and the raw f64 values (see write_tensor_list).
std::size_t list_bytes(const std::vector<tensor::Tensor>& ts) {
  std::size_t n = 4;
  for (const auto& t : ts) n += 4 + 8 * t.shape().size() + 8 * t.numel();
  return n;
}

/// Upper bound on the file bytes `encode` appends for `state`, from tensor
/// shapes and string lengths, so the image is allocated once and never
/// regrown (each regrowth would copy every byte written so far).
std::size_t encoded_bytes_bound(const TrainState& state) {
  // Covers one record's framing (name <= 32 bytes) plus its fixed fields.
  constexpr std::size_t kRecordSlack = 64;
  std::size_t n = 6 * kRecordSlack + list_bytes(state.reference) +
                  list_bytes(state.policy_state) +
                  list_bytes(state.broadcast) +
                  list_bytes(state.broadcast_residual);
  for (const auto& p : state.pipelines) {
    n += 2 * kRecordSlack + list_bytes(p.params) + list_bytes(p.residuals);
    for (const auto& s : p.stages) {
      n += kRecordSlack + s.optimizer.name.size() +
           8 * s.optimizer.scalars.size() + list_bytes(s.optimizer.slots) +
           list_bytes(s.pred_delta);
    }
  }
  for (const auto& [name, snapshot] : state.rng_streams) {
    n += 8 + name.size() + snapshot.size();
  }
  return n;
}

/// Residual record payload: codec byte + tensor list.
void write_residuals(ByteWriter& w, std::uint8_t codec,
                     const std::vector<tensor::Tensor>& residuals) {
  w.u8(codec);
  write_tensor_list(w, residuals);
}

std::vector<tensor::Tensor> decode_residuals(
    std::span<const std::uint8_t> payload, const char* what) {
  ByteReader r(payload);
  r.u8();  // codec byte (authoritative copy lives in residual.broadcast)
  std::vector<tensor::Tensor> ts = read_tensor_list(r);
  r.expect_done(what);
  return ts;
}

void write_pipeline(ByteWriter& w, const PipelineState& p) {
  w.u8(p.alive ? 1 : 0);
  write_tensor_list(w, p.params);
  w.u32(static_cast<std::uint32_t>(p.stages.size()));
  for (const auto& s : p.stages) {
    write_optimizer_state(w, s.optimizer);
    write_tensor_list(w, s.pred_delta);
    w.u8(s.pred_have_delta ? 1 : 0);
  }
}

PipelineState decode_pipeline(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  PipelineState p;
  p.alive = r.u8() != 0;
  p.params = read_tensor_list(r);
  const std::uint32_t stages = r.u32();
  p.stages.reserve(stages);
  for (std::uint32_t i = 0; i < stages; ++i) {
    runtime::StageState s;
    s.optimizer = read_optimizer_state(r);
    s.pred_delta = read_tensor_list(r);
    s.pred_have_delta = r.u8() != 0;
    p.stages.push_back(std::move(s));
  }
  r.expect_done("pipeline record");
  return p;
}

void write_list_record(CheckpointWriter& writer, const std::string& name,
                       const std::vector<tensor::Tensor>& ts) {
  writer.record(name, [&](ByteWriter& w) { write_tensor_list(w, ts); });
}

std::vector<tensor::Tensor> decode_list(std::span<const std::uint8_t> payload,
                                        const char* what) {
  ByteReader r(payload);
  std::vector<tensor::Tensor> ts = read_tensor_list(r);
  r.expect_done(what);
  return ts;
}

}  // namespace

void encode(const TrainState& state, CheckpointWriter& writer) {
  writer.reserve(encoded_bytes_bound(state));
  writer.record("meta", [&](ByteWriter& w) {
    w.i64(state.step);
    w.u8(state.policy_kind);
    w.f64(state.alpha);
    w.u32(static_cast<std::uint32_t>(state.pipelines.size()));
    w.u32(static_cast<std::uint32_t>(state.rng_streams.size()));
  });
  write_list_record(writer, "reference", state.reference);
  write_list_record(writer, "policy", state.policy_state);
  write_list_record(writer, "broadcast", state.broadcast);
  for (std::size_t i = 0; i < state.pipelines.size(); ++i) {
    writer.record(pipeline_record(i), [&](ByteWriter& w) {
      write_pipeline(w, state.pipelines[i]);
    });
  }
  writer.record("rng", [&](ByteWriter& w) {
    w.u32(static_cast<std::uint32_t>(state.rng_streams.size()));
    for (const auto& [name, snapshot] : state.rng_streams) {
      w.str(name);
      w.str(snapshot);
    }
  });
  // Sync-compression EF residuals ride along only when a codec was active:
  // an uncompressed run's checkpoint bytes are unchanged, and old readers
  // simply never ask for these records.
  if (state.sync_codec != 0) {
    writer.record("residual.broadcast", [&](ByteWriter& w) {
      write_residuals(w, state.sync_codec, state.broadcast_residual);
    });
    for (std::size_t i = 0; i < state.pipelines.size(); ++i) {
      writer.record(residual_record(i), [&](ByteWriter& w) {
        write_residuals(w, state.sync_codec, state.pipelines[i].residuals);
      });
    }
  }
}

TrainState decode(const CheckpointReader& reader) {
  TrainState state;
  std::uint32_t pipelines = 0;
  {
    ByteReader r(reader.payload("meta"));
    state.step = static_cast<long>(r.i64());
    state.policy_kind = r.u8();
    state.alpha = r.f64();
    pipelines = r.u32();
    r.u32();  // rng count (authoritative count lives in the rng record)
    r.expect_done("meta record");
  }
  state.reference = decode_list(reader.payload("reference"), "reference");
  state.policy_state = decode_list(reader.payload("policy"), "policy");
  state.broadcast = decode_list(reader.payload("broadcast"), "broadcast");
  state.pipelines.reserve(pipelines);
  for (std::uint32_t i = 0; i < pipelines; ++i) {
    state.pipelines.push_back(
        decode_pipeline(reader.payload(pipeline_record(i))));
  }
  {
    ByteReader r(reader.payload("rng"));
    const std::uint32_t n = r.u32();
    state.rng_streams.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::string name = r.str();
      std::string snapshot = r.str();
      state.rng_streams.emplace_back(std::move(name), std::move(snapshot));
    }
    r.expect_done("rng record");
  }
  // Optional (compression-era) records: absent in pre-compression and
  // uncompressed checkpoints, which decode exactly as before.
  if (reader.has("residual.broadcast")) {
    ByteReader r(reader.payload("residual.broadcast"));
    state.sync_codec = r.u8();
    state.broadcast_residual = read_tensor_list(r);
    r.expect_done("residual.broadcast record");
    for (std::uint32_t i = 0; i < pipelines; ++i) {
      if (!reader.has(residual_record(i))) continue;
      state.pipelines[i].residuals =
          decode_residuals(reader.payload(residual_record(i)),
                           "pipeline residual record");
    }
  }
  return state;
}

}  // namespace avgpipe::ckpt
