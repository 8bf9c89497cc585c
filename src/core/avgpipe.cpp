#include "core/avgpipe.hpp"

#include "common/affinity.hpp"
#include "common/thread_pool.hpp"

namespace avgpipe::core {

namespace {

/// Deep copy of a parameter set: checkpoint state must own its storage
/// (Tensor copies share storage; a live apply must never mutate a capture).
ParamSet clone_set(const ParamSet& src) {
  ParamSet out;
  out.reserve(src.size());
  for (const auto& t : src) out.push_back(t.clone());
  return out;
}

}  // namespace

// -- AvgPipe (full threaded system) ----------------------------------------------

AvgPipe::AvgPipe(const nn::ModelFactory& factory,
                 const runtime::OptimizerFactory& make_optimizer,
                 AvgPipeConfig config)
    : config_(std::move(config)), make_optimizer_(make_optimizer) {
  AVGPIPE_CHECK(config_.num_pipelines >= 1, "need at least one pipeline");
  // The sync queues must hold lag + 1 in-flight rounds and apply tokens (see
  // reference_loop). sync_lag only applies in async mode; sync mode is lag 0.
  const std::size_t lag = config_.async_sync ? config_.sync_lag : 0;
  AVGPIPE_CHECK(lag < kSyncQueueCapacity,
                "sync_lag " << lag << " must be below the sync queue "
                            << "capacity " << kSyncQueueCapacity);
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

  // Thread-placement plan: N*K stage threads issue kernels concurrently, so
  // each gets a fair share of the global pool unless AVGPIPE_STAGE_THREADS
  // overrides; the pin-slot layout additionally covers the reference
  // thread.
  const std::size_t num_stages = config_.boundaries.size() + 1;
  stage_workers_ = stage_workers_from_env(config_.num_pipelines * num_stages);
  pin_total_slots_ = config_.num_pipelines * num_stages + 1;
  ring_size_ = lag + 1;

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

  auto params0 = replicas_[0]->model.parameters();
  reference_ = std::make_unique<ReferenceModel>(clone_values(params0));
  policy_ = make_sync_policy(config_.sync);
  // An explicit config pins the compression mode; otherwise the environment
  // decides (default off — the bit-exact path).
  compression_ = config_.sync_compression.has_value()
                     ? *config_.sync_compression
                     : sync_compression_from_env(SyncCompression{});
  broadcast_codec_ = SyncCodec(compression_);
  {
    // The initial publish is transmission #1 of the broadcast stream (the
    // reference thread isn't running yet, so this is single-threaded — the
    // justification for asserting the reference capability here).
    common::MutexLock lock(reference_mutex_);
    common::RoleGuard ref_role(reference_capability());
    publish_broadcast();
  }

  // Each replica gets its own pipeline runtime over its own parameters; its
  // stage threads run the sync hooks.
  for (std::size_t i = 0; i < replicas_.size(); ++i) start_runtime(i);
  if (config_.tracer != nullptr) {
    driver_trace_ = config_.tracer->create_buffer();
    reference_trace_ = config_.tracer->create_buffer();
  }

  reference_thread_ = std::thread([this] { reference_loop(); });
}

void AvgPipe::start_runtime(std::size_t i) {
  Replica& r = *replicas_[i];
  auto rt = std::make_unique<runtime::PipelineRuntime>(
      r.model, config_.boundaries, make_optimizer_,
      runtime::cross_entropy_loss(), config_.kind, config_.advance_num);
  rt->set_tracer(config_.tracer);
  rt->set_pipeline_index(i);
  rt->set_faults(faults_);
  rt->set_stage_workers(stage_workers_);
  rt->set_thread_slots(i * rt->num_stages(), pin_total_slots_);
  if (config_.sync.kind == SyncPolicyKind::kXPipe &&
      config_.sync.prediction_lookahead != 0.0) {
    runtime::PredictionConfig pc;
    pc.lookahead = config_.sync.prediction_lookahead;
    pc.beta = config_.sync.prediction_beta;
    rt->set_weight_prediction(pc);
  }
  using Hook = runtime::PipelineRuntime::StageHook;
  const auto hook = [this, i](bool begin) -> Hook {
    return [this, i, begin](std::size_t stage, trace::TraceBuffer* trace) {
      stage_sync(i, stage, trace, begin);
    };
  };
  rt->set_stage_hooks(policy_->needs_begin() ? hook(true) : Hook{},
                      hook(false));
  // Stage parameter lists are consecutive runs of the model's (partition).
  r.stages.assign(rt->num_stages(), StageSync{});
  std::size_t first = 0;
  for (std::size_t k = 0; k < r.stages.size(); ++k) {
    StageSync& s = r.stages[k];
    s.first = first;
    s.params = rt->stage_parameters(k);
    first += s.params.size();
    for (std::size_t slot = 0; slot < ring_size_; ++slot) {
      s.ring.push_back(uninitialized_like(s.params));
    }
    s.push_codec = SyncCodec(compression_);
  }
  AVGPIPE_CHECK(first == r.model.parameters().size(),
                "stage shards do not cover the model");
  r.runtime = std::move(rt);
}

AvgPipe::~AvgPipe() {
  // Join every stage thread first (no further rounds can be produced), then
  // let the reference thread drain any in-flight rounds over the closed
  // queue before joining it.
  for (auto& replica : replicas_) replica->runtime.reset();
  update_queue_.close();
  applied_queue_.close();
  if (reference_thread_.joinable()) reference_thread_.join();
}

AVGPIPE_HOT_PATH
void AvgPipe::stage_sync(std::size_t i, std::size_t stage,
                         trace::TraceBuffer* trace, bool begin) {
  // Both hooks read the latest snapshot the reference process has published
  // — fresh at lag 0 (the driver waited for the previous apply), up to
  // sync_lag applies stale otherwise (for BSP/BMUF's reset, the only
  // staleness that family admits), never blocking on an apply. The local
  // sync is elastic's steps ❷–❸, or a BSP-family weight copy.
  StageSync& s = replicas_[i]->stages[stage];
  const Seconds t0 = trace != nullptr ? config_.tracer->wall_now() : 0;
  // Ring invariant: round t writes slot t mod (lag + 1). The driver let at
  // most `lag` applies trail behind before submitting round t, so round
  // t - lag - 1, the slot's previous user, has been applied, and the
  // reference thread dropped its handles before acknowledging it.
  ParamSet& out = s.ring[ring_slot_];
  for (std::size_t j = 0; !begin && j < out.size(); ++j) {
    AVGPIPE_CHECK(out[j].use_count() == 1,
                  "update ring slot " << ring_slot_ << " of pipeline " << i
                                      << " stage " << stage
                                      << " is held by an unapplied round");
  }
  std::shared_ptr<const ParamSet> snap = snapshot_handle();
  const auto shard = std::span<const tensor::Tensor>(*snap).subspan(
      s.first, s.params.size());
  if (begin) {
    policy_->begin_round(s.params, shard);
  } else {
    policy_->local_sync(s.params, shard, alpha_, out);
  }
  release_snapshot(snap);
  if (!begin) {
    record_sync_bytes(trace, i, stage, s.push_codec.transmit(out));
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

std::shared_ptr<const ParamSet> AvgPipe::snapshot_handle() {
  common::MutexLock lock(reference_mutex_);
  return latest_snapshot_;
}

void AvgPipe::release_snapshot(std::shared_ptr<const ParamSet>& snap) {
  common::MutexLock lock(reference_mutex_);
  snap.reset();
}

AVGPIPE_HOT_PATH
void AvgPipe::publish_broadcast() {
  // Pulls may still read the current snapshot, so the broadcast goes into
  // the one it replaced. Handles are taken and dropped under
  // reference_mutex_ (held here), so a use count of 1 means no pull reads
  // that one any more and the mutex orders their reads before this rewrite.
  if (spare_snapshot_ == nullptr || spare_snapshot_.use_count() != 1) {
    // First two publishes, or a pull still reads the spare: its holder
    // keeps it alive until the pull ends.
    // LINT_ALLOW(hot-path-alloc): publish into a fresh snapshot instead.
    spare_snapshot_ =
        std::make_shared<ParamSet>(uninitialized_like(reference_->params()));
  }
  policy_->make_broadcast(*reference_, *spare_snapshot_);
  record_sync_bytes(reference_trace_, 0, 0,
                    broadcast_codec_.transmit(*spare_snapshot_));
  std::swap(latest_snapshot_, spare_snapshot_);
}

AVGPIPE_HOT_PATH
void AvgPipe::reference_loop() {
  // The reference process (paper §3.2): one message per iteration carries
  // the round of local updates from every surviving pipeline; normalise by
  // the round size (N_alive) and apply, keeping the reference at the mean of
  // the survivors.
  //
  // Batched application: under sync_lag > 0 the driver can run ahead, so
  // several rounds may already be queued when this thread wakes. Drain them
  // all and apply the batch in one critical section — the elastic policy's
  // fused sweep touches each reference weight once per batch instead of once
  // per round, and the broadcast is rebuilt once. An apply token is still
  // sent per round, so the driver's bounded-lag handshake is unchanged. At
  // lag 0 (sync mode) the driver waits for every apply, the queue never
  // holds more than one round, every batch has size 1, and the schedule of
  // pulls/applies — hence the parameter trajectory — is bit-identical to
  // the unbatched loop.
  //
  // Apply tokens are sent while reference_mutex_ is held, so a full
  // applied_queue_ would block this thread with the mutex held and hang the
  // next stage pull; the constructor bounds sync_lag below
  // kSyncQueueCapacity so the queue never fills.
  pin_current_thread(pin_policy_from_env(), pin_total_slots_ - 1,
                     pin_total_slots_);
  std::vector<std::vector<ParamSet>> rounds;
  while (auto round = update_queue_.recv()) {
    rounds.push_back(std::move(*round));
    while (auto more = update_queue_.try_recv()) {
      rounds.push_back(std::move(*more));
    }
    common::MutexLock lock(reference_mutex_);
    // The reference thread is the reference process; reference_mutex_ (held
    // above) serialises it against the driver's snapshot/restore paths.
    common::RoleGuard ref_role(reference_capability());
    if (reference_trace_ != nullptr) {
      // Staleness: local updates received per round but not yet visible to
      // the pipelines through an apply.
      for (const auto& r : rounds) {
        for (std::size_t received = 1; received <= r.size(); ++received) {
          trace::TraceEvent ev;
          ev.kind = trace::EventKind::kCounter;
          ev.counter = trace::CounterId::kStaleness;
          ev.t_begin = ev.t_end = config_.tracer->wall_now();
          ev.value = static_cast<double>(received);
          reference_trace_->record(ev);
        }
      }
    }
    const Seconds t0 =
        reference_trace_ != nullptr ? config_.tracer->wall_now() : 0;
    policy_->apply_rounds(*reference_, rounds);
    const std::size_t applied = rounds.size();
    // Drop the rounds' handles onto the stage rings before acknowledging
    // them: an acknowledged slot is free for reuse (see stage_sync).
    rounds.clear();
    publish_broadcast();
    if (reference_trace_ != nullptr) {
      trace::TraceEvent ev;
      ev.kind = trace::EventKind::kReferenceApply;
      ev.t_begin = t0;
      ev.t_end = config_.tracer->wall_now();
      reference_trace_->record(ev);
      trace::TraceEvent batch;
      batch.kind = trace::EventKind::kCounter;
      batch.counter = trace::CounterId::kSyncBatch;
      batch.t_begin = batch.t_end = ev.t_end;
      batch.value = static_cast<double>(applied);
      reference_trace_->record(batch);
    }
    for (std::size_t r = 0; r < applied; ++r) applied_queue_.send(1);
  }
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
  const ParamSet ref = broadcast_snapshot();
  auto params = replicas_[i]->model.parameters();
  AVGPIPE_CHECK(params.size() == ref.size(), "replica/reference mismatch");
  for (std::size_t j = 0; j < params.size(); ++j) {
    params[j].value().copy_from(ref[j]);
    params[j].zero_grad();  // drop partial sums from the crashed batch
  }
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

  // Step ❶: every alive pipeline's batch is dispatched to its stage threads
  // at once (replicas train concurrently); each stage then runs its own
  // policy local sync (❷–❸) on its shard right after its update. A runtime
  // failure is contained to its pipeline: its wait throws and the driver
  // detaches the pipeline below instead of propagating.
  ring_slot_ = static_cast<std::size_t>(step) % ring_size_;
  std::vector<double> losses(replicas_.size(), 0.0);
  std::vector<std::string> errors(replicas_.size());
  std::vector<char> completed(replicas_.size(), 0);
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!health_[i].alive) continue;
    try {
      replicas_[i]->runtime->submit(batches[i], config_.micro_batches);
      completed[i] = 1;  // until wait() says otherwise
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  }
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
    // The pipeline's update is its stages' ring slots, shared not copied.
    ParamSet update;
    for (const StageSync& s : replicas_[i]->stages) {
      update.insert(update.end(), s.ring[ring_slot_].begin(),
                    s.ring[ring_slot_].end());
    }
    round.push_back(std::move(update));
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
  // them all) carries no update: there is nothing to apply or wait for.
  if (!round.empty()) {
    update_queue_.send(std::move(round));
    ++outstanding_applies_;
  }
  // Steps ❹–❺ bounded-lag handshake: synchronous mode is lag 0 — it waits
  // for this iteration's apply so the next pull sees fresh weights; async
  // mode lets up to sync_lag applies trail behind training.
  wait_applies(config_.async_sync ? config_.sync_lag : 0);
  if (driver_trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kCounter;
    ev.counter = trace::CounterId::kSyncLag;
    ev.t_begin = ev.t_end = config_.tracer->wall_now();
    ev.value = static_cast<double>(outstanding_applies_);
    driver_trace_->record(ev);
  }

  double total = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (health_[i].alive) total += losses[i];
  }
  return total / static_cast<double>(alive);
}

void AvgPipe::wait_applies(std::size_t limit) {
  while (outstanding_applies_ > limit) {
    auto applied = applied_queue_.recv();
    AVGPIPE_CHECK(applied.has_value(), "reference process stopped");
    --outstanding_applies_;
  }
}

void AvgPipe::synchronize() { wait_applies(0); }

nn::Sequential& AvgPipe::eval_model() {
  const ParamSet ref = reference_snapshot();
  auto params = eval_model_.parameters();
  AVGPIPE_CHECK(params.size() == ref.size(), "eval model mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i].value().copy_from(ref[i]);
  }
  return eval_model_;
}

ParamSet AvgPipe::reference_snapshot() {
  synchronize();  // observe every completed iteration's apply
  common::MutexLock lock(reference_mutex_);
  return reference_->snapshot();
}

ParamSet AvgPipe::broadcast_snapshot() {
  synchronize();
  common::MutexLock lock(reference_mutex_);
  // Apply drain + reference_mutex_: the driver is the reference process for
  // the duration of this snapshot.
  common::RoleGuard ref_role(reference_capability());
  return policy_->make_broadcast(*reference_);
}

ParamSet AvgPipe::replica_snapshot(std::size_t i) const {
  AVGPIPE_CHECK(i < replicas_.size(), "pipeline out of range");
  AVGPIPE_CHECK(health_[i].alive, "pipeline " << i << " is detached");
  auto params = replicas_[i]->model.parameters();
  return clone_values(params);
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
  // The apply drain *is* the capture barrier: after synchronize() the
  // reference has folded every shipped round, every stage thread is parked
  // between batches, and the driver owns all parameter and optimizer
  // tensors.
  synchronize();
  ckpt::TrainState state;
  state.step = iteration_;
  state.policy_kind = static_cast<std::uint8_t>(policy_->kind());
  state.alpha = alpha_;
  state.sync_codec = static_cast<std::uint8_t>(compression_.codec);
  {
    common::MutexLock lock(reference_mutex_);
    // Capture barrier (the synchronize() above) + reference_mutex_: the
    // driver is the reference process while it snapshots policy state.
    common::RoleGuard ref_role(reference_capability());
    state.reference = reference_->snapshot();
    state.policy_state = policy_->export_state();
    state.broadcast = clone_set(*latest_snapshot_);
    state.broadcast_residual = clone_set(broadcast_codec_.residuals());
  }
  state.pipelines.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    ckpt::PipelineState p;
    p.alive = health_[i].alive;
    if (p.alive) {
      p.params = replica_snapshot(i);
      p.stages = replicas_[i]->runtime->export_stage_state();
      // The pipeline's push residuals are its shards' in stage order.
      for (const StageSync& s : replicas_[i]->stages) {
        for (const auto& r : s.push_codec.residuals()) {
          p.residuals.push_back(r.clone());
        }
      }
    }
    state.pipelines.push_back(std::move(p));
  }
  state.rng_streams.reserve(rngs_.size());
  for (const auto& [name, rng] : rngs_) {
    state.rng_streams.emplace_back(name, rng->save_state());
  }
  return state;
}

void AvgPipe::restore_pipeline(std::size_t i, const ckpt::PipelineState& p,
                               bool codec_match) {
  auto params = replicas_[i]->model.parameters();
  AVGPIPE_CHECK(params.size() == p.params.size(),
                "restore: pipeline " << i << " has " << params.size()
                                     << " parameters, checkpoint has "
                                     << p.params.size());
  for (std::size_t j = 0; j < params.size(); ++j) {
    params[j].value().copy_from(p.params[j]);
    params[j].zero_grad();  // a crashed batch may have left partial sums
  }
  const bool was_dead = !health_[i].alive;
  if (was_dead) start_runtime(i);
  replicas_[i]->runtime->import_stage_state(p.stages);
  // The checkpoint holds the pipeline's residuals as one list (empty before
  // the first lossy push); each shard takes its own run of it.
  const bool residuals = codec_match && !p.residuals.empty();
  AVGPIPE_CHECK(!residuals || p.residuals.size() == params.size(),
                "restore: pipeline " << i << " has " << p.residuals.size()
                                     << " push residuals for "
                                     << params.size() << " parameters");
  for (StageSync& s : replicas_[i]->stages) {
    ParamSet shard;
    for (std::size_t j = 0; residuals && j < s.params.size(); ++j) {
      shard.push_back(p.residuals[s.first + j].clone());
    }
    s.push_codec.set_residuals(std::move(shard));
  }
  if (was_dead) {
    health_[i].alive = true;
    health_[i].last_error.clear();
    rebalance_alpha();
    record_membership_event(trace::EventKind::kPipelineRejoin, i);
  }
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
  // Residuals only transfer between identically compressed runs; restoring
  // into a differently configured system drops them (a codec change resets
  // the EF streams, like a fresh wire).
  const bool codec_match =
      state.sync_codec == static_cast<std::uint8_t>(compression_.codec);
  {
    common::MutexLock lock(reference_mutex_);
    // Restore barrier (the synchronize() above) + reference_mutex_: the
    // driver is the reference process while it rewrites policy state.
    common::RoleGuard ref_role(reference_capability());
    ParamSet& ref = reference_->mutable_params();
    AVGPIPE_CHECK(ref.size() == state.reference.size(),
                  "restore: reference size mismatch");
    for (std::size_t j = 0; j < ref.size(); ++j) {
      ref[j].copy_from(state.reference[j]);
    }
    policy_->import_state(clone_set(state.policy_state));
    latest_snapshot_ =
        std::make_shared<ParamSet>(clone_set(state.broadcast));
    if (codec_match) {
      broadcast_codec_.set_residuals(clone_set(state.broadcast_residual));
    } else {
      broadcast_codec_.reset_residuals();
    }
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
  const ckpt::ManifestEntry entry =
      config_.checkpoints->write(capture_state());
  if (driver_trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kCheckpoint;
    ev.batch = static_cast<std::int32_t>(entry.step);
    ev.bytes = entry.bytes;
    ev.value = static_cast<double>(entry.bytes);
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
