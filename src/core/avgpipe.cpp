#include "core/avgpipe.hpp"

#include <thread>
#include <utility>

#include "common/thread_pool.hpp"

namespace avgpipe::core {

// -- AvgPipe (full threaded system) ----------------------------------------------

AvgPipe::AvgPipe(const nn::ModelFactory& factory,
                 const runtime::OptimizerFactory& make_optimizer,
                 AvgPipeConfig config)
    : config_(std::move(config)), make_optimizer_(make_optimizer) {
  AVGPIPE_CHECK(config_.num_pipelines >= 1, "need at least one pipeline");
  faults_ = config_.faults != nullptr ? config_.faults : fault::env_plan();
  if (faults_ != nullptr) {
    for (const auto& c : faults_->crashes) {
      AVGPIPE_CHECK(c.pipeline >= 0 &&
                        static_cast<std::size_t>(c.pipeline) <
                            config_.num_pipelines,
                    "fault plan crashes pipeline " << c.pipeline
                                                   << " but the system has "
                                                   << config_.num_pipelines);
    }
  }
  alpha_ = config_.alpha > 0.0 ? config_.alpha
                               : default_alpha(config_.num_pipelines);
  health_.resize(config_.num_pipelines);

  // N*K stage threads issue kernels concurrently, so each gets a fair share
  // of the global pool unless AVGPIPE_STAGE_THREADS overrides.
  const std::size_t num_stages = config_.boundaries.size() + 1;
  stage_workers_ = stage_workers_from_env(config_.num_pipelines * num_stages);
  // sync_lag only applies in async mode; sync mode is lag 0.
  ring_size_ = (config_.async_sync ? config_.sync_lag : 0) + 1;

  // Build replicas with identical initial weights: replica 0's init is the
  // source of truth, copied into every other replica and the eval model.
  for (std::size_t i = 0; i < config_.num_pipelines; ++i) {
    auto replica = std::make_unique<Replica>();
    replica->model = factory(/*seed=*/1234);
    replicas_.push_back(std::move(replica));
  }
  eval_model_ = factory(1234);
  for (std::size_t i = 1; i < replicas_.size(); ++i) {
    nn::copy_parameters(replicas_[0]->model, replicas_[i]->model);
  }
  nn::copy_parameters(replicas_[0]->model, eval_model_);
  // Each replica stage's parameters move, once, into one flat buffer, whose
  // layout the ring, reference, broadcast and residuals share. The replaced
  // per-tensor buffers are released on a thread with no arena cache, so
  // they are freed rather than parked in this thread's.
  ParamSet replaced;
  for (auto& replica : replicas_) {
    for (nn::Sequential& stage : replica->model.partition(config_.boundaries)) {
      auto params = stage.parameters();
      replica->stages.push_back({replica->params.size(), params.size(), {}});
      ParamSet views = tensor::flat_zeros(values_of(params));
      for (std::size_t j = 0; j < params.size(); ++j) {
        views[j].copy_from(params[j].value());
        replaced.push_back(std::exchange(params[j].value(), views[j]));
        replica->params.push_back(views[j]);
      }
    }
    for (std::size_t slot = 0; slot < ring_size_; ++slot) {
      replica->ring.push_back(tensor::zeros_like(replica->params));
    }
  }
  std::thread([&replaced] { replaced.clear(); }).join();

  reference_ =
      std::make_unique<ReferenceModel>(clone_set(replicas_[0]->params));
  policy_ = make_sync_policy(config_.sync);
  // An explicit config pins the compression mode; otherwise the environment
  // decides (default off — the bit-exact path).
  compression_ = config_.sync_compression.has_value()
                     ? *config_.sync_compression
                     : sync_compression_from_env(SyncCompression{});
  {
    // The initial publish is transmission #1 of the broadcast stream. The
    // driver is the reference process (and no stage thread runs yet).
    common::RoleGuard ref_role(reference_capability());
    broadcast_codec_ = SyncCodec(compression_);
    broadcast_ = tensor::zeros_like(reference_->params());
    publish_broadcast();
  }

  // Each replica gets its own pipeline runtime over its own parameters; its
  // stage threads run the sync hooks.
  for (std::size_t i = 0; i < replicas_.size(); ++i) start_runtime(i);
  if (config_.checkpoints != nullptr) {
    checkpoint_key_ = config_.checkpoints->key();
  }
  if (config_.tracer != nullptr) {
    driver_trace_ = config_.tracer->create_buffer();
    if (config_.checkpoints != nullptr) {
      commit_trace_ = config_.tracer->create_buffer();
    }
  }
}

void AvgPipe::start_runtime(std::size_t i) {
  Replica& r = *replicas_[i];
  const auto hook = [this, i](bool begin) -> runtime::StageHook {
    return [this, i, begin](std::size_t stage, trace::TraceBuffer* trace) {
      stage_sync(i, stage, trace, begin);
    };
  };
  runtime::RuntimeConfig rc;
  rc.kind = config_.kind;
  rc.advance_num = config_.advance_num;
  rc.micro_batches = config_.micro_batches;
  rc.stage_workers = stage_workers_;
  rc.tracer = config_.tracer;
  rc.pipeline_index = i;
  rc.faults = faults_;
  if (config_.sync.kind == SyncPolicyKind::kXPipe) {
    rc.prediction_lookahead = config_.sync.prediction_lookahead;
  }
  if (policy_->needs_begin()) rc.begin_hook = hook(true);
  rc.end_hook = hook(false);
  auto rt = std::make_unique<runtime::PipelineRuntime>(
      r.model, config_.boundaries, make_optimizer_,
      runtime::cross_entropy_loss(), std::move(rc));
  AVGPIPE_CHECK(rt->num_stages() == r.stages.size(),
                "runtime and shards partition the model differently");
  // Fresh push streams (a real restart loses residuals), each stage's
  // residuals being its shard of the replica's.
  r.residuals = compression_.enabled() ? tensor::zeros_like(r.params)
                                       : ParamSet{};
  for (StageSync& s : r.stages) {
    s.push_codec = SyncCodec(compression_);
    if (r.residuals.empty()) continue;
    const auto run = std::span(r.residuals).subspan(s.first, s.size);
    s.push_codec.residuals().assign(run.begin(), run.end());
  }
  r.runtime = std::move(rt);
}

AvgPipe::~AvgPipe() {
  // Join every stage thread before the state their hooks read goes away,
  // and let the last save's commit land before the trace buffer it records
  // into may go. By key: config.checkpoints may already be gone.
  for (auto& replica : replicas_) replica->runtime.reset();
  if (!checkpoint_key_.empty()) ckpt::drain(checkpoint_key_);
}

AVGPIPE_HOT_PATH
void AvgPipe::stage_sync(std::size_t i, std::size_t stage,
                         trace::TraceBuffer* trace, bool begin) {
  // Both hooks read broadcast_ once the driver has published this round's
  // folds: round t sees the reference through round t - max(lag, 1), for
  // BSP/BMUF's reset as for the elastic pull. The local sync is elastic's
  // steps ❷–❸, or a BSP-family weight copy.
  Replica& r = *replicas_[i];
  StageSync& s = r.stages[stage];
  const Seconds t0 = trace != nullptr ? config_.tracer->wall_now() : 0;
  for (long p = published_.load(std::memory_order_acquire); p < submitted_;
       p = published_.load(std::memory_order_acquire)) {
    published_.wait(p, std::memory_order_acquire);
  }
  // Ring invariant: round t writes slot t mod (lag + 1). At most `lag`
  // rounds were pending when the driver submitted round t, so round
  // t - lag - 1, the slot's previous user, is folded and its handles
  // dropped: only the slot's own views hold the stage's buffer.
  ParamSet& out = r.ring[ring_slot_];
  AVGPIPE_CHECK(begin || s.size == 0 ||
                    out[s.first].use_count() == static_cast<long>(s.size),
                "update ring slot " << ring_slot_ << " of pipeline " << i
                                    << " stage " << stage
                                    << " is held by an unfolded round");
  const auto shard = [&s](ParamSet& set) {
    return std::span(set).subspan(s.first, s.size);
  };
  if (begin) {
    policy_->begin_round(shard(r.params), shard(broadcast_));
  } else {
    policy_->local_sync(shard(r.params), shard(broadcast_), alpha_,
                        shard(out));
    record_sync_bytes(trace, i, stage, s.push_codec.transmit(shard(out)));
  }
  if (trace == nullptr) return;
  trace::TraceEvent ev;
  ev.kind = begin ? trace::EventKind::kPolicyBroadcast
                  : trace::EventKind::kElasticPull;
  ev.pipeline = static_cast<std::uint32_t>(i);
  ev.stage = static_cast<std::uint32_t>(stage);
  ev.t_begin = t0;
  ev.t_end = config_.tracer->wall_now();
  trace->record(ev);
}

AVGPIPE_HOT_PATH
void AvgPipe::publish_broadcast() {
  policy_->make_broadcast(*reference_, broadcast_);
  record_sync_bytes(driver_trace_, 0, 0, broadcast_codec_.transmit(broadcast_));
}

AVGPIPE_HOT_PATH
void AvgPipe::fold_pending(std::size_t limit) {
  // The reference process (paper §3.2): normalise each round by its size
  // (N_alive) and apply, keeping the reference at the mean of the
  // survivors. The due rounds fold as one batch — the elastic policy's
  // fused sweep touches each reference weight once per batch — and the
  // broadcast is rebuilt once.
  if (pending_.size() <= limit) return;
  // The driver is the reference process: no other thread calls the
  // reference-side hooks, and stage hooks read only broadcast_.
  common::RoleGuard ref_role(reference_capability());
  const Seconds t0 = driver_trace_ != nullptr ? config_.tracer->wall_now() : 0;
  const auto due =
      pending_.begin() + static_cast<std::ptrdiff_t>(pending_.size() - limit);
  folding_.assign(std::make_move_iterator(pending_.begin()),
                  std::make_move_iterator(due));
  pending_.erase(pending_.begin(), due);
  policy_->apply_rounds(*reference_, folding_);
  const std::size_t folded = folding_.size();
  // Drop the rounds' handles onto the stage rings: their slots are free for
  // reuse (see stage_sync).
  folding_.clear();
  publish_broadcast();
  if (driver_trace_ == nullptr) return;
  trace::TraceEvent ev;
  ev.kind = trace::EventKind::kReferenceApply;
  ev.t_begin = t0;
  ev.t_end = config_.tracer->wall_now();
  driver_trace_->record(ev);
  trace::TraceEvent batch;
  batch.kind = trace::EventKind::kCounter;
  batch.counter = trace::CounterId::kSyncBatch;
  batch.t_begin = batch.t_end = ev.t_end;
  batch.value = static_cast<double>(folded);
  driver_trace_->record(batch);
}

std::size_t AvgPipe::alive_pipelines() const {
  std::size_t n = 0;
  for (const auto& h : health_) n += h.alive ? 1 : 0;
  return n;
}

bool AvgPipe::pipeline_alive(std::size_t i) const {
  AVGPIPE_CHECK(i < health_.size(), "pipeline out of range");
  return health_[i].alive;
}

const fault::PipelineHealth& AvgPipe::health(std::size_t i) const {
  AVGPIPE_CHECK(i < health_.size(), "pipeline out of range");
  return health_[i];
}

void AvgPipe::rebalance_alpha() {
  const std::size_t alive = alive_pipelines();
  if (alive == 0) return;  // the caller throws; keep the last valid α
  alpha_ = config_.alpha > 0.0 ? config_.alpha : default_alpha(alive);
}

void AvgPipe::record_sync_bytes(trace::TraceBuffer* buf, std::size_t pipeline,
                                std::size_t stage,
                                const SyncCodec::Stats& stats) {
  if (buf == nullptr) return;
  const Seconds now = config_.tracer->wall_now();
  trace::TraceEvent wire;
  wire.kind = trace::EventKind::kCounter;
  wire.counter = trace::CounterId::kSyncBytes;
  wire.pipeline = static_cast<std::uint32_t>(pipeline);
  wire.stage = static_cast<std::uint32_t>(stage);
  wire.t_begin = wire.t_end = now;
  wire.bytes = stats.wire_bytes;
  wire.value = static_cast<double>(stats.wire_bytes);
  buf->record(wire);
  trace::TraceEvent raw = wire;
  raw.counter = trace::CounterId::kSyncBytesRaw;
  raw.bytes = stats.raw_bytes;
  raw.value = static_cast<double>(stats.raw_bytes);
  buf->record(raw);
}

void AvgPipe::record_membership_event(trace::EventKind kind,
                                      std::size_t pipeline) {
  if (driver_trace_ == nullptr) return;
  const Seconds now = config_.tracer->wall_now();
  trace::TraceEvent ev;
  ev.kind = kind;
  ev.pipeline = static_cast<std::uint32_t>(pipeline);
  ev.t_begin = ev.t_end = now;
  driver_trace_->record(ev);
  trace::TraceEvent alive;
  alive.kind = trace::EventKind::kCounter;
  alive.counter = trace::CounterId::kAlivePipelines;
  alive.t_begin = alive.t_end = now;
  alive.value = static_cast<double>(alive_pipelines());
  driver_trace_->record(alive);
}

void AvgPipe::detach_pipeline(std::size_t i, const std::string& reason) {
  AVGPIPE_CHECK(i < replicas_.size(), "pipeline out of range");
  if (!health_[i].alive) return;
  health_[i].alive = false;
  ++health_[i].failures;
  health_[i].last_error = reason;
  // Tear the runtime down (stage threads join) — the "process" is gone.
  // The reference model simply keeps averaging over the survivors: the
  // mean-of-replicas invariant re-establishes at the next apply.
  replicas_[i]->runtime.reset();
  rebalance_alpha();
  record_membership_event(trace::EventKind::kPipelineCrash, i);
}

void AvgPipe::rejoin_pipeline(std::size_t i) {
  AVGPIPE_CHECK(i < replicas_.size(), "pipeline out of range");
  if (health_[i].alive) return;
  // Re-initialise from the *policy's* reconstruction of state — the paper's
  // pull mechanism doubling as recovery, generalised: elastic/BSP restore
  // the averaged model, BMUF the Nesterov restart point W + η·Δ (restoring
  // raw weights would silently drop the block momentum a rejoiner's first
  // round must see). The fresh runtime brings fresh optimizer state (a real
  // process restart).
  attach_pipeline(i, broadcast_snapshot());
}

void AvgPipe::attach_pipeline(std::size_t i, const ParamSet& weights) {
  copy_into(replicas_[i]->params, weights);
  replicas_[i]->model.zero_grad();  // drop a crashed batch's partial sums
  if (health_[i].alive) return;
  start_runtime(i);  // fresh push codecs: a real restart loses residuals
  health_[i].alive = true;
  health_[i].last_error.clear();
  rebalance_alpha();
  record_membership_event(trace::EventKind::kPipelineRejoin, i);
}

void AvgPipe::apply_scheduled_faults() {
  if (faults_ == nullptr) return;
  for (const auto& c : faults_->crashes) {
    if (c.crash_at_step == iteration_) {
      detach_pipeline(static_cast<std::size_t>(c.pipeline),
                      "injected crash (fault plan)");
    }
    if (c.rejoin_at_step == iteration_) {
      rejoin_pipeline(static_cast<std::size_t>(c.pipeline));
    }
  }
}

double AvgPipe::train_iteration(const std::vector<data::Batch>& batches) {
  AVGPIPE_CHECK(batches.size() == replicas_.size(),
                "need one batch per pipeline: got " << batches.size()
                                                    << ", expected "
                                                    << replicas_.size());
  apply_scheduled_faults();
  AVGPIPE_CHECK(alive_pipelines() >= 1, "no pipeline left alive");
  const long step = iteration_++;
  const std::size_t lag = ring_size_ - 1;

  // Step ❶: every alive pipeline's batch is dispatched to its stage threads
  // at once (replicas train concurrently); each stage then runs its own
  // policy local sync (❷–❸) on its shard right after its update. A runtime
  // failure is contained to its pipeline: its wait throws and the driver
  // detaches the pipeline below instead of propagating.
  ring_slot_ = static_cast<std::size_t>(step) % ring_size_;
  ++submitted_;
  std::vector<double> losses(replicas_.size(), 0.0);
  std::vector<std::string> errors(replicas_.size());
  std::vector<char> completed(replicas_.size(), 0);
  // This round's stage hooks wait until published_ reaches it. It advances
  // on every exit, a throwing fold included, so no hook waits forever.
  const auto publish = [this] {
    published_.store(submitted_, std::memory_order_release);
    published_.notify_all();
  };
  try {
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (!health_[i].alive) continue;
      try {
        replicas_[i]->runtime->submit(batches[i]);
        completed[i] = 1;  // until wait() says otherwise
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
    // Steps ❹–❺ overlap the training: fold round t - lag now, so round t
    // reads the reference through it.
    if (lag > 0) fold_pending(lag - 1);
  } catch (...) {
    publish();
    throw;
  }
  publish();
  std::vector<ParamSet> round;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!completed[i]) continue;
    try {
      losses[i] = replicas_[i]->runtime->wait().loss;
    } catch (const std::exception& e) {
      errors[i] = e.what();
      completed[i] = 0;
      continue;
    }
    // The pipeline's update is its ring slot, shared not copied.
    round.push_back(replicas_[i]->ring[ring_slot_]);
  }
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!health_[i].alive) continue;
    if (completed[i]) {
      health_[i].last_ok_step = step;  // heartbeat
    } else {
      detach_pipeline(i, errors[i]);
      // Escalation beyond the elastic detach: any contained failure (a
      // thrown runtime error, the robust_recv peer-unresponsive deadline)
      // re-attaches immediately from durable state instead of waiting for an
      // operator rejoin. The lost work is this pipeline's batch; its next
      // pull re-couples it to the survivors' average.
      if (config_.restore_on_failure && config_.checkpoints != nullptr) {
        restore_pipeline_from_checkpoint(i);
      }
    }
  }
  const std::size_t alive = alive_pipelines();
  if (alive == 0) {
    std::string first;
    for (const auto& e : errors) {
      if (!e.empty()) { first = e; break; }
    }
    AVGPIPE_THROW("every pipeline failed at step " << step << ": " << first);
  }

  // A round in which every pipeline failed (and restore_on_failure re-attached
  // them all) carries no update: there is nothing to fold.
  if (!round.empty()) pending_.push_back(std::move(round));
  // Lag 0 folds the round it just collected, so the next round reads it.
  fold_pending(lag);
  if (driver_trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kCounter;
    ev.counter = trace::CounterId::kSyncLag;
    ev.t_begin = ev.t_end = config_.tracer->wall_now();
    ev.value = static_cast<double>(pending_.size());
    driver_trace_->record(ev);
  }

  double total = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (health_[i].alive) total += losses[i];
  }
  return total / static_cast<double>(alive);
}

void AvgPipe::synchronize() { fold_pending(0); }

// The snapshots below run on the driver, which is the reference process.

nn::Sequential& AvgPipe::eval_model() {
  synchronize();  // observe every completed iteration's round
  ParamSet values = values_of(eval_model_.parameters());
  common::RoleGuard ref_role(reference_capability());
  copy_into(values, reference_->params());
  return eval_model_;
}

ParamSet AvgPipe::reference_snapshot() {
  synchronize();
  common::RoleGuard ref_role(reference_capability());
  return reference_->snapshot();
}

ParamSet AvgPipe::broadcast_snapshot() {
  synchronize();
  common::RoleGuard ref_role(reference_capability());
  return policy_->make_broadcast(*reference_);
}

ParamSet AvgPipe::replica_snapshot(std::size_t i) const {
  AVGPIPE_CHECK(i < replicas_.size(), "pipeline out of range");
  AVGPIPE_CHECK(health_[i].alive, "pipeline " << i << " is detached");
  return clone_set(replicas_[i]->params);
}

// -- durable checkpoint/restore -----------------------------------------------

void AvgPipe::register_rng(const std::string& name, Rng* rng) {
  AVGPIPE_CHECK(rng != nullptr, "register_rng: null stream");
  for (const auto& [existing, _] : rngs_) {
    AVGPIPE_CHECK(existing != name,
                  "register_rng: duplicate stream name '" << name << "'");
  }
  rngs_.emplace_back(name, rng);
}

ckpt::TrainState AvgPipe::capture_state() {
  // Capture barrier: every stage thread is parked between batches, so the
  // driver owns all parameter and optimizer tensors, and after synchronize()
  // the reference has folded every collected round.
  synchronize();
  ckpt::TrainState state;
  state.step = iteration_;
  state.policy_kind = static_cast<std::uint8_t>(policy_->kind());
  state.alpha = alpha_;
  state.sync_codec = static_cast<std::uint8_t>(compression_.codec);
  {
    common::RoleGuard ref_role(reference_capability());  // the driver's
    state.reference = reference_->snapshot();
    state.policy_state = policy_->export_state();
    state.broadcast = clone_set(broadcast_);
    state.broadcast_residual = clone_set(broadcast_codec_.residuals());
  }
  state.pipelines.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    ckpt::PipelineState p;
    p.alive = health_[i].alive;
    if (p.alive) {
      p.params = replica_snapshot(i);
      p.stages = replicas_[i]->runtime->export_stage_state();
      p.residuals = clone_set(replicas_[i]->residuals);
    }
    state.pipelines.push_back(std::move(p));
  }
  state.rng_streams.reserve(rngs_.size());
  for (const auto& [name, rng] : rngs_) {
    state.rng_streams.emplace_back(name, rng->save_state());
  }
  return state;
}

namespace {

/// Residuals only transfer between identically compressed runs; restoring
/// into a differently configured system, or from an empty list (captured
/// before the stream's first lossy transmit), starts the stream over from
/// zeros, like a fresh wire.
void restore_residuals(ParamSet& stream, const ParamSet& saved,
                       bool codec_match) {
  copy_into(stream, codec_match && !saved.empty() ? saved
                                                  : tensor::zeros_like(stream));
}

}  // namespace

void AvgPipe::restore_pipeline(std::size_t i, const ckpt::PipelineState& p,
                               bool codec_match) {
  attach_pipeline(i, p.params);
  replicas_[i]->runtime->import_stage_state(p.stages);
  restore_residuals(replicas_[i]->residuals, p.residuals, codec_match);
}

void AvgPipe::restore_state(const ckpt::TrainState& state) {
  AVGPIPE_CHECK(state.pipelines.size() == replicas_.size(),
                "restore: checkpoint has " << state.pipelines.size()
                                           << " pipelines, system has "
                                           << replicas_.size());
  AVGPIPE_CHECK(
      state.policy_kind == static_cast<std::uint8_t>(policy_->kind()),
      "restore: checkpoint policy kind " << int(state.policy_kind)
                                         << " != configured policy '"
                                         << policy_->name() << "'");
  synchronize();
  iteration_ = state.step;
  const bool codec_match =
      state.sync_codec == static_cast<std::uint8_t>(compression_.codec);
  {
    common::RoleGuard ref_role(reference_capability());  // the driver's
    copy_into(reference_->mutable_params(), state.reference);
    policy_->import_state(*reference_, state.policy_state);
    copy_into(broadcast_, state.broadcast);
    restore_residuals(broadcast_codec_.residuals(), state.broadcast_residual,
                      codec_match);
  }
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (state.pipelines[i].alive) {
      restore_pipeline(i, state.pipelines[i], codec_match);
    } else {
      detach_pipeline(i, "restored checkpoint marks pipeline dead");
    }
  }
  for (const auto& [name, snapshot] : state.rng_streams) {
    for (auto& [registered, rng] : rngs_) {
      if (registered == name) rng->restore_state(snapshot);
    }
  }
  // The restored alive set reproduces this value via rebalance_alpha(); the
  // explicit assignment makes the checkpoint authoritative regardless.
  alpha_ = state.alpha;
}

ckpt::ManifestEntry AvgPipe::save_checkpoint() {
  AVGPIPE_CHECK(config_.checkpoints != nullptr,
                "save_checkpoint without config.checkpoints");
  const Seconds t0 =
      driver_trace_ != nullptr ? config_.tracer->wall_now() : 0;
  // At most one save in flight: let the previous commit land (a failed one
  // raises its error here) before capturing the next state.
  config_.checkpoints->wait();
  const ckpt::ManifestEntry entry = config_.checkpoints->submit(
      capture_state(), {config_.tracer, commit_trace_});
  if (driver_trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kCheckpoint;
    ev.batch = static_cast<std::int32_t>(entry.step);
    ev.t_begin = t0;
    ev.t_end = config_.tracer->wall_now();
    driver_trace_->record(ev);
  }
  return entry;
}

ckpt::CheckpointDir::LoadResult AvgPipe::restore_latest_checkpoint() {
  AVGPIPE_CHECK(config_.checkpoints != nullptr,
                "restore_latest_checkpoint without config.checkpoints");
  const Seconds t0 =
      driver_trace_ != nullptr ? config_.tracer->wall_now() : 0;
  ckpt::TrainState state;
  const auto res = config_.checkpoints->load_latest(&state);
  if (res.ok) restore_state(state);
  if (driver_trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kRestore;
    ev.batch = static_cast<std::int32_t>(res.step);
    ev.value = static_cast<double>(res.fallbacks);
    ev.t_begin = t0;
    ev.t_end = config_.tracer->wall_now();
    driver_trace_->record(ev);
  }
  return res;
}

bool AvgPipe::restore_pipeline_from_checkpoint(std::size_t i) {
  const Seconds t0 =
      driver_trace_ != nullptr ? config_.tracer->wall_now() : 0;
  ckpt::TrainState state;
  const auto res = config_.checkpoints->load_latest(&state);
  // Usable only if the checkpoint knows this pipeline as alive — otherwise
  // (no checkpoint yet, all entries corrupted, or the pipeline was already
  // dead at capture) degrade to the paper's broadcast rejoin.
  const bool usable = res.ok &&
                      state.pipelines.size() == replicas_.size() &&
                      state.pipelines[i].alive;
  if (usable) {
    restore_pipeline(i, state.pipelines[i],
                     state.sync_codec ==
                         static_cast<std::uint8_t>(compression_.codec));
  } else {
    rejoin_pipeline(i);
  }
  if (driver_trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kRestore;
    ev.pipeline = static_cast<std::uint32_t>(i);
    ev.batch = usable ? static_cast<std::int32_t>(res.step) : -1;
    ev.value = static_cast<double>(res.fallbacks);
    ev.t_begin = t0;
    ev.t_end = config_.tracer->wall_now();
    driver_trace_->record(ev);
  }
  return usable;
}

}  // namespace avgpipe::core
