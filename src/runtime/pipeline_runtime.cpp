#include "runtime/pipeline_runtime.hpp"

#include <chrono>
#include <sstream>

#include "common/affinity.hpp"
#include "common/env.hpp"
#include "common/thread_pool.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace avgpipe::runtime {

namespace {
/// A batch dispatch and its done barrier never overlap, so at most one start
/// token per stage is ever in flight (+1 slack).
constexpr std::size_t kStartCapacity = 2;

/// Resilient-recv budget under an active fault plan: first poll quantum,
/// per-attempt cap, and the overall wall deadline after which a silent peer
/// is declared dead. Generous against injected stragglers (which sleep for
/// multiples of real op durations) while still bounding a true hang.
constexpr Seconds kRecvInitialWait = 1e-4;
constexpr Seconds kRecvMaxWait = 0.05;
constexpr Seconds kRecvDeadline = 10.0;

/// Consecutive injected drops a sender tolerates before declaring its
/// outbound link dead and failing the batch.
constexpr int kMaxSendAttempts = 5;

Seconds elapsed_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::size_t env_channel_capacity() {
  // Construction-time read, before any worker thread exists.
  const auto v = common::env_int_opt("AVGPIPE_CHANNEL_CAPACITY");
  if (!v.has_value()) return 0;
  AVGPIPE_CHECK(*v >= 1,
                "AVGPIPE_CHANNEL_CAPACITY must be >= 1, got " << *v);
  return static_cast<std::size_t>(*v);
}

/// Whether to assert the "+1 slack" link-capacity contract on every send.
/// On by default in debug builds; AVGPIPE_ASSERT_CHANNEL_SLACK=1/0 forces it
/// either way (CI arms it in release tier-1 runs).
bool env_assert_link_slack() {
  // Construction-time read, before any worker thread exists.
#ifdef NDEBUG
  return common::env_flag("AVGPIPE_ASSERT_CHANNEL_SLACK", false);
#else
  return common::env_flag("AVGPIPE_ASSERT_CHANNEL_SLACK", true);
#endif
}
}  // namespace

LossFn cross_entropy_loss() {
  return [](const tensor::Variable& logits, const std::vector<int>& targets) {
    // Language-model heads emit [B,S,V]; flatten to rows for the loss.
    if (logits.shape().size() == 3) {
      const auto& s = logits.shape();
      return tensor::softmax_cross_entropy(
          tensor::reshape(logits, {s[0] * s[1], s[2]}), targets);
    }
    return tensor::softmax_cross_entropy(logits, targets);
  };
}

PipelineRuntime::PipelineRuntime(nn::Sequential model,
                                 std::vector<std::size_t> boundaries,
                                 const OptimizerFactory& make_optimizer,
                                 LossFn loss, schedule::Kind kind,
                                 std::size_t advance_num)
    : model_(std::move(model)),
      loss_(std::move(loss)),
      kind_(kind),
      advance_num_(advance_num) {
  AVGPIPE_CHECK(kind_ == schedule::Kind::kAfab ||
                    kind_ == schedule::Kind::kOneFOneB ||
                    kind_ == schedule::Kind::kAdvanceForward,
                "runtime supports the flushed schedules; got "
                    << schedule::to_string(kind_));
  auto views = model_.partition(boundaries);
  const std::size_t k = views.size();
  if (advance_num_ == 0) advance_num_ = k - 1;
  // Validate here rather than in the worker threads: a bad advance count
  // must surface as an exception to the caller, not terminate a worker.
  AVGPIPE_CHECK(kind_ != schedule::Kind::kAdvanceForward ||
                    advance_num_ + 1 >= k,
                "advance_num " << advance_num_ << " below the 1F1B minimum "
                               << k - 1);

  faults_ = fault::env_plan();
  faults_active_ = faults_ != nullptr && !faults_->empty();
  capacity_override_ = env_channel_capacity();
  // Only meaningful against the schedule-derived capacity: an override can
  // legitimately park sends (that is the point of the experiment knob).
  assert_link_slack_ = capacity_override_ == 0 && env_assert_link_slack();

  done_ = std::make_unique<Channel<int>>(k);

  // Intra-stage kernel parallelism: each stage thread claims an equal share
  // of the pool budget (AVGPIPE_STAGE_THREADS overrides). A standalone
  // runtime owns pin slots [0, k); an elastic driver re-plans both via
  // set_stage_workers / set_thread_slots before the first batch.
  stage_workers_ = stage_workers_from_env(k);
  pin_total_slots_ = k;

  for (std::size_t i = 0; i < k; ++i) {
    auto stage = std::make_unique<Stage>();
    stage->index = i;
    stage->module = std::move(views[i]);
    stage->optimizer = make_optimizer(stage->module.parameters());
    stage_start_.push_back(
        std::make_unique<Channel<std::size_t>>(kStartCapacity));
    stages_.push_back(std::move(stage));
  }
  // Payload links are built for a provisional one-micro-batch batch here so
  // close_all() can always walk them; the first train_batch resizes them to
  // the real schedule depth before any worker touches a link.
  ensure_channels(1);
  // Warm the intra-op pool before stage workers start issuing GEMMs, so the
  // first micro-batch doesn't pay worker-thread spawn inside its critical
  // path.
  ThreadPool::global();

  for (auto& stage : stages_) {
    Stage* s = stage.get();
    s->thread = std::thread([this, s] { worker_loop(*s); });
  }
}

PipelineRuntime::~PipelineRuntime() {
  stopping_ = true;
  close_all();
  for (auto& stage : stages_) {
    if (stage->thread.joinable()) stage->thread.join();
  }
}

void PipelineRuntime::close_all() {
  for (auto& ch : stage_start_) ch->close();
  input_->close();
  for (auto& ch : acts_) ch->close();
  for (auto& ch : grads_) ch->close();
  done_->close();
}

std::size_t PipelineRuntime::link_capacity(std::size_t micro_batches) const {
  if (capacity_override_ > 0) return capacity_override_;
  // Schedule-derived bound (see schedule::max_send_run_ahead; the verify::
  // model checker proves the run-ahead is exact for every reachable
  // interleaving), plus one slot of slack so a send at the exact bound
  // never parks — faulty_send() asserts that contract when
  // assert_link_slack_ is armed.
  return schedule::max_send_run_ahead(kind_, stages_.size(), micro_batches,
                                      advance_num_) +
         1;
}

void PipelineRuntime::ensure_channels(std::size_t micro_batches) {
  if (input_ != nullptr && micro_batches <= channel_micro_batches_) return;
  channel_micro_batches_ = std::max(channel_micro_batches_, micro_batches);
  const std::size_t link_cap = link_capacity(channel_micro_batches_);
  // The driver enqueues the whole batch up front; sizing the feed channel to
  // M keeps train_batch from parking mid-dispatch.
  const std::size_t input_cap = std::max(channel_micro_batches_, link_cap);
  input_ = std::make_unique<SpscChannel<ActMessage>>(input_cap);
  acts_.clear();
  grads_.clear();
  for (std::size_t i = 0; i + 1 < stages_.size(); ++i) {
    acts_.push_back(std::make_unique<SpscChannel<ActMessage>>(link_cap));
    grads_.push_back(std::make_unique<SpscChannel<GradMessage>>(link_cap));
  }
}

void PipelineRuntime::fail(const std::string& what) {
  {
    common::MutexLock lock(failure_mutex_);
    if (failure_.empty()) failure_ = what;  // first failure wins
  }
  failed_.store(true, std::memory_order_release);
  close_all();
}

std::string PipelineRuntime::failure_message() const {
  common::MutexLock lock(failure_mutex_);
  return failure_;
}

void PipelineRuntime::set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

void PipelineRuntime::set_pipeline_index(std::size_t index) {
  pipeline_index_ = static_cast<std::uint32_t>(index);
}

void PipelineRuntime::set_stage_hooks(StageHook begin, StageHook end) {
  begin_hook_ = std::move(begin);
  end_hook_ = std::move(end);
}

std::vector<tensor::Variable> PipelineRuntime::stage_parameters(
    std::size_t k) const {
  AVGPIPE_CHECK(k < stages_.size(), "stage out of range");
  return stages_[k]->module.parameters();
}

void PipelineRuntime::set_faults(const fault::FaultPlan* plan) {
  faults_ = plan;
  faults_active_ = faults_ != nullptr && !faults_->empty();
}

void PipelineRuntime::set_stage_workers(std::size_t workers) {
  // 0 keeps the construction-time default (env knob / equal share).
  if (workers != 0) stage_workers_ = workers;
}

void PipelineRuntime::set_thread_slots(std::size_t first_slot,
                                       std::size_t total_slots) {
  pin_first_slot_ = first_slot;
  pin_total_slots_ = total_slots;
}

void PipelineRuntime::set_weight_prediction(const PredictionConfig& config) {
  AVGPIPE_CHECK(config.lookahead >= 0.0,
                "prediction lookahead must be >= 0, got " << config.lookahead);
  AVGPIPE_CHECK(config.beta >= 0.0 && config.beta < 1.0,
                "prediction beta must be in [0,1), got " << config.beta);
  prediction_ = config;
  prediction_active_ = config.lookahead != 0.0;
}

void PipelineRuntime::record_span(Stage& stage, trace::EventKind kind,
                                  const schedule::Instr& instr,
                                  Seconds t_begin) {
  if (stage.trace_buf == nullptr) return;
  trace::TraceEvent ev;
  ev.kind = kind;
  ev.pipeline = pipeline_index_;
  ev.stage = static_cast<std::uint32_t>(stage.index);
  ev.batch = instr.batch;
  ev.micro_batch = instr.micro_batch;
  ev.t_begin = t_begin;
  ev.t_end = tracer_->wall_now();
  stage.trace_buf->record(ev);
}

void PipelineRuntime::record_counter(Stage& stage, trace::CounterId id,
                                     double value) {
  if (stage.trace_buf == nullptr) return;
  trace::TraceEvent ev;
  ev.kind = trace::EventKind::kCounter;
  ev.counter = id;
  ev.pipeline = pipeline_index_;
  ev.stage = static_cast<std::uint32_t>(stage.index);
  ev.t_begin = ev.t_end = tracer_->wall_now();
  ev.value = value;
  stage.trace_buf->record(ev);
}

void PipelineRuntime::record_queue_depth(Stage& stage, std::size_t depth) {
  record_counter(stage, trace::CounterId::kQueueDepth,
                 static_cast<double>(depth));
}

// Generic over MPMC Channel and SPSC stage links, so the SPSC role
// requirement cannot be spelled here; the enclosing run_forward/run_backward
// hold the RoleGuard instead (allowlisted analysis opt-out).
template <typename Ch>
auto PipelineRuntime::robust_recv(Stage& stage, Ch& ch, const char* what)
    NO_THREAD_SAFETY_ANALYSIS -> decltype(ch.recv()) {
  if (!faults_active_) return ch.recv();
  fault::Backoff backoff(kRecvInitialWait, kRecvMaxWait, kRecvDeadline);
  typename decltype(ch.recv())::value_type out;
  while (backoff.can_retry()) {
    switch (ch.recv_for(&out, backoff.next_timeout())) {
      case ChannelStatus::kOk: return out;  // implicit move (local object)
      case ChannelStatus::kClosed: return std::nullopt;
      case ChannelStatus::kTimeout:
        record_counter(stage, trace::CounterId::kRecvRetry,
                       static_cast<double>(backoff.attempts()));
        break;
    }
  }
  // A typed throw, not AVGPIPE_THROW: worker_loop tags the failure so the
  // elastic driver can escalate (detach + restore from checkpoint) instead
  // of treating a hung peer like a programming error.
  std::ostringstream msg;
  msg << "stage " << stage.index << ": peer unresponsive on " << what
      << " after " << backoff.attempts() << " attempts (deadline "
      << kRecvDeadline << "s)";
  throw PeerUnresponsiveError(msg.str());
}

// Same generic-channel analysis opt-out as robust_recv (see the header).
template <typename Ch, typename T>
void PipelineRuntime::faulty_send(Stage& stage, Ch& ch, T msg,
                                  const schedule::Instr& instr, long step,
                                  fault::LinkDir dir) NO_THREAD_SAFETY_ANALYSIS {
  if (faults_active_) {
    const std::uint64_t key = fault::message_key(
        step, instr.micro_batch, static_cast<int>(stage.index), dir);
    const Seconds t0 = stage.trace_buf ? tracer_->wall_now() : 0;
    int attempt = 0;
    Seconds retry = 0;
    while (faults_->should_drop(static_cast<int>(pipeline_index_),
                                static_cast<int>(stage.index), step, key,
                                attempt, &retry)) {
      ++attempt;
      AVGPIPE_CHECK(attempt < kMaxSendAttempts,
                    "stage " << stage.index << ": message (step " << step
                             << ", micro-batch " << instr.micro_batch
                             << ") dropped " << attempt
                             << " consecutive times; link declared dead");
      fault::sleep_for(retry);
    }
    if (attempt > 0) {
      record_span(stage, trace::EventKind::kFaultDrop, instr, t0);
    }
    // Degraded-link windows add per-message latency on this boundary.
    const int link = dir == fault::LinkDir::kActivation
                         ? static_cast<int>(stage.index)
                         : static_cast<int>(stage.index) - 1;
    fault::sleep_for(faults_->send_delay(link, step));
  }
  if (assert_link_slack_ && !faults_active_) {
    // The producer-side size() read is conservative: head is monotone, so an
    // observed-full channel really did hold capacity() messages at the
    // moment our previous send completed — a genuine violation of the
    // run-ahead + 1 provisioning, never a transient artifact.
    AVGPIPE_CHECK(ch.size() < ch.capacity(),
                  "stage " << stage.index << ": steady-state send parked ("
                           << ch.size() << "/" << ch.capacity()
                           << " slots used) — link_capacity() slack violated "
                              "for micro-batch "
                           << instr.micro_batch);
  }
  const bool ok = ch.send(std::move(msg));
  AVGPIPE_CHECK(ok, "stage " << stage.index
                             << ": channel closed while sending (peer "
                                "failure in flight)");
}

AVGPIPE_HOT_PATH
void PipelineRuntime::worker_loop(Stage& stage) {
  while (auto m = stage_start_[stage.index]->recv()) {
    if (tracer_ != nullptr && stage.trace_buf == nullptr) {
      stage.trace_buf = tracer_->create_buffer();
    }
    if (!stage.pinned) {
      // Pin once, on first batch rather than at spawn: the elastic driver
      // installs its slot plan (set_thread_slots) between construction and
      // the first train_batch. No-op unless AVGPIPE_PIN_THREADS is set and
      // the machine has a core per slot.
      pin_current_thread(pin_policy_from_env(), pin_first_slot_ + stage.index,
                         pin_total_slots_);
      stage.pinned = true;
    }
    // Every parallel_for issued from this thread for the rest of the batch
    // (GEMM row-panel fan-out) is capped at this stage's worker share, so K
    // concurrently-running stages cannot oversubscribe the pool.
    PartitionGuard partition(stage_workers_);
    schedule::ScheduleParams params;
    params.kind = kind_;
    params.num_stages = stages_.size();
    params.micro_batches = *m;
    params.num_batches = 1;
    params.advance_num = advance_num_;
    stage.program =
        schedule::make_schedule(params).stages[stage.index].instrs;
    stage.loss_sum = 0;
    stage.micro_batches = *m;
    const long step = step_.load(std::memory_order_acquire);

    // Any exception inside an instruction — a CHECK failure, an injected
    // fault, a model bug — would previously escape the thread and
    // std::terminate the process. Capture it with the stage/instruction
    // context, fail the batch and let every peer unwind over the closed
    // channels instead.
    const schedule::Instr* current = nullptr;
    try {
      if (begin_hook_) begin_hook_(stage.index, stage.trace_buf);
      begin_prediction(stage, step);
      for (const auto& instr : stage.program) {
        current = &instr;
        run_instr(stage, instr, step);
      }
      if (end_hook_) {
        // Flushed schedules end every stage's program with its update, so
        // the hook sees this batch's committed weights.
        AVGPIPE_CHECK(
            stage.program.back().kind == schedule::OpKind::kUpdate,
            "stage program does not end with its update");
        current = nullptr;
        end_hook_(stage.index, stage.trace_buf);
      }
    } catch (const std::exception& e) {
      if (dynamic_cast<const PeerUnresponsiveError*>(&e) != nullptr) {
        peer_unresponsive_.store(true, std::memory_order_release);
      }
      std::ostringstream msg;
      msg << "stage " << stage.index;
      if (current != nullptr) {
        msg << " [" << schedule::to_string(current->kind) << " b"
            << current->batch << "." << current->micro_batch << "]";
      }
      msg << ": " << e.what();
      fail(msg.str());
      return;  // the worker is dead; the runtime is permanently failed
    }
    if (stage.trace_buf != nullptr) {
      // Spin-vs-park telemetry for this stage's inbound links (the side this
      // thread blocks on). Per-batch deltas; the clamp survives the counters
      // resetting when ensure_channels rebuilds the links between batches.
      std::uint64_t parks = 0, spins = 0;
      const SpscChannel<ActMessage>& act_in =
          stage.index == 0 ? *input_ : *acts_[stage.index - 1];
      parks += act_in.parks();
      spins += act_in.spin_waits();
      if (stage.index + 1 < stages_.size()) {
        parks += grads_[stage.index]->parks();
        spins += grads_[stage.index]->spin_waits();
      }
      const std::uint64_t dp =
          parks >= stage.last_parks ? parks - stage.last_parks : parks;
      const std::uint64_t ds =
          spins >= stage.last_spins ? spins - stage.last_spins : spins;
      stage.last_parks = parks;
      stage.last_spins = spins;
      record_counter(stage, trace::CounterId::kParkCount,
                     static_cast<double>(dp));
      record_counter(stage, trace::CounterId::kSpinCount,
                     static_cast<double>(ds));
    }
    done_->send(static_cast<int>(stage.index));
  }
}

AVGPIPE_HOT_PATH
void PipelineRuntime::run_instr(Stage& stage, const schedule::Instr& instr,
                                long step) {
  if (faults_active_ &&
      faults_->should_kill(static_cast<int>(pipeline_index_),
                           static_cast<int>(stage.index), step,
                           instr.micro_batch)) {
    // Arbitrary-point crash: die before the instruction runs, leaving any
    // partial activations/gradients of this batch behind. The worker loop
    // flattens this into a failed-batch report; the elastic driver detaches
    // (and, with checkpoints, restores) the pipeline.
    AVGPIPE_THROW("injected worker kill (fault plan): stage "
                  << stage.index << ", step " << step << ", micro-batch "
                  << instr.micro_batch << ", op "
                  << schedule::to_string(instr.kind));
  }
  const double slow =
      faults_active_
          ? faults_->straggler_factor(static_cast<int>(pipeline_index_),
                                      static_cast<int>(stage.index), step)
          : 1.0;
  const auto w0 = std::chrono::steady_clock::now();
  // gemm() accrues its 2mnk count on the issuing thread even when the
  // blocked kernel fans out, so this delta is the instruction's full matmul
  // work regardless of the stage's worker share.
  const std::uint64_t f0 =
      stage.trace_buf != nullptr ? tensor::thread_flops() : 0;

  switch (instr.kind) {
    case schedule::OpKind::kForward: run_forward(stage, instr, step); break;
    case schedule::OpKind::kBackward: run_backward(stage, instr, step); break;
    case schedule::OpKind::kUpdate: run_update(stage, instr); break;
    case schedule::OpKind::kAllReduce:
      AVGPIPE_THROW("all-reduce in a pipeline stream");
  }

  if (stage.trace_buf != nullptr) {
    const std::uint64_t df = tensor::thread_flops() - f0;
    if (df > 0) {
      record_counter(stage, trace::CounterId::kFlops,
                     static_cast<double>(df));
    }
  }

  if (slow > 1.0) {
    // A straggler runs `slow`x slower: stretch the op by sleeping the
    // missing (slow - 1) share of its measured duration.
    const Seconds t0 = stage.trace_buf ? tracer_->wall_now() : 0;
    fault::sleep_for((slow - 1.0) * elapsed_since(w0));
    record_span(stage, trace::EventKind::kFaultStraggler, instr, t0);
  }
}

void PipelineRuntime::run_forward(Stage& stage, const schedule::Instr& instr,
                                  long step) {
  const bool first = stage.index == 0;
  const bool last = stage.index + 1 == stages_.size();

  SpscChannel<ActMessage>& in_ch = first ? *input_ : *acts_[stage.index - 1];
  // This stage thread is the one consumer of its inbound activation link
  // (the upstream worker — or the driver, for input_ — is the one producer).
  common::RoleGuard in_role(in_ch.consumer_role());
  const Seconds t_wait = stage.trace_buf ? tracer_->wall_now() : 0;
  auto msg = robust_recv(stage, in_ch, "activation");
  record_span(stage, trace::EventKind::kWaitBubble, instr, t_wait);
  record_queue_depth(stage, in_ch.size());
  AVGPIPE_CHECK(msg.has_value(), "activation channel closed mid-batch");
  AVGPIPE_CHECK(msg->micro_batch == instr.micro_batch,
                "stage " << stage.index << " expected micro-batch "
                         << instr.micro_batch << ", got " << msg->micro_batch);

  // The boundary input needs a gradient on every stage but the first.
  const Seconds t0 = stage.trace_buf ? tracer_->wall_now() : 0;
  tensor::Variable in(std::move(msg->payload), /*requires_grad=*/!first);
  tensor::Variable out = stage.module.forward(in);
  Stash stash;
  stash.input = in;
  if (last) {
    tensor::Variable loss_var = loss_(out, msg->targets);
    stage.loss_sum += loss_var.value()[0];
    stash.output = loss_var;
  } else {
    // One producer per outbound activation link: this stage thread.
    common::RoleGuard out_role(acts_[stage.index]->producer_role());
    faulty_send(stage, *acts_[stage.index],
                ActMessage{instr.micro_batch, out.value(),
                           std::move(msg->targets)},
                instr, step, fault::LinkDir::kActivation);
    stash.output = out;
  }
  stage.stash.emplace(instr.micro_batch, std::move(stash));
  stage.peak_stash = std::max(stage.peak_stash, stage.stash.size());
  record_span(stage, trace::EventKind::kForward, instr, t0);
}

void PipelineRuntime::run_backward(Stage& stage,
                                   const schedule::Instr& instr, long step) {
  const bool first = stage.index == 0;
  const bool last = stage.index + 1 == stages_.size();

  auto it = stage.stash.find(instr.micro_batch);
  AVGPIPE_CHECK(it != stage.stash.end(),
                "backward without stashed forward for micro-batch "
                    << instr.micro_batch);
  Stash stash = std::move(it->second);
  stage.stash.erase(it);

  Seconds t0 = stage.trace_buf ? tracer_->wall_now() : 0;
  if (last) {
    stash.output.backward();  // loss scalar, seed = 1
  } else {
    SpscChannel<GradMessage>& grad_ch = *grads_[stage.index];
    // One consumer per inbound gradient link: this stage thread.
    common::RoleGuard grad_role(grad_ch.consumer_role());
    const Seconds t_wait = t0;
    auto grad = robust_recv(stage, grad_ch, "gradient");
    record_span(stage, trace::EventKind::kWaitBubble, instr, t_wait);
    record_queue_depth(stage, grad_ch.size());
    AVGPIPE_CHECK(grad.has_value(), "gradient channel closed mid-batch");
    AVGPIPE_CHECK(grad->micro_batch == instr.micro_batch,
                  "stage " << stage.index << " expected gradient "
                           << instr.micro_batch << ", got "
                           << grad->micro_batch);
    if (stage.trace_buf) t0 = tracer_->wall_now();
    stash.output.backward(grad->payload);
  }
  if (!first) {
    // Ownership transfer, not a clone: the stash entry dies at end of scope
    // and the receiver's accumulate_grad deep-copies the seed into its own
    // grad buffer on first contribution, so the storage is never shared
    // across the link after the send. One producer per outbound gradient
    // link: this stage thread.
    common::RoleGuard out_role(grads_[stage.index - 1]->producer_role());
    faulty_send(stage, *grads_[stage.index - 1],
                GradMessage{instr.micro_batch,
                            std::move(stash.input.mutable_grad())},
                instr, step, fault::LinkDir::kGradient);
  }
  record_span(stage, trace::EventKind::kBackward, instr, t0);
}

void PipelineRuntime::begin_prediction(Stage& stage, long step) {
  if (!prediction_active_) return;
  const auto& params = stage.optimizer->params();
  if (stage.pred_true.empty()) {
    stage.pred_true.reserve(params.size());
    for (const auto& p : params) stage.pred_true.push_back(p.value().clone());
  } else {
    for (std::size_t i = 0; i < params.size(); ++i) {
      stage.pred_true[i].copy_from(params[i].value());
    }
  }
  // Sized independently of pred_true: import_stage_state restores Δ̂ before
  // this stage has ever predicted (pred_true still empty).
  if (stage.pred_delta.empty()) {
    stage.pred_delta.reserve(params.size());
    for (const auto& p : params) {
      stage.pred_delta.emplace_back(p.value().shape());
    }
  }
  stage.pred_predicted = true;
  // Nothing to extrapolate from until the first realised update: the batch
  // then runs on the true weights (and seeds Δ̂ in run_update).
  if (!stage.pred_have_delta) return;
  const Seconds t0 = stage.trace_buf ? tracer_->wall_now() : 0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const_cast<tensor::Variable&>(params[i]).value().axpy_(
        prediction_.lookahead, stage.pred_delta[i]);
  }
  if (stage.trace_buf != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kWeightPrediction;
    ev.pipeline = pipeline_index_;
    ev.stage = static_cast<std::uint32_t>(stage.index);
    ev.batch = static_cast<std::int32_t>(step);
    ev.t_begin = t0;
    ev.t_end = tracer_->wall_now();
    stage.trace_buf->record(ev);
  }
}

void PipelineRuntime::run_update(Stage& stage, const schedule::Instr& instr) {
  // Accumulated micro-batch gradients -> batch-mean gradient.
  const Seconds t0 = stage.trace_buf ? tracer_->wall_now() : 0;
  const auto& params = stage.optimizer->params();
  const bool predicted = prediction_active_ && stage.pred_predicted;
  if (predicted) {
    // The batch's gradients were computed at the predicted weights ŵ; the
    // update itself lands on the true weights stashed at batch start (XPipe
    // semantics: predict for compute, correct on apply).
    for (std::size_t i = 0; i < params.size(); ++i) {
      const_cast<tensor::Variable&>(params[i]).value().copy_from(
          stage.pred_true[i]);
    }
  }
  const double inv_m = 1.0 / static_cast<double>(stage.micro_batches);
  for (auto& p : params) {
    const_cast<tensor::Variable&>(p).mutable_grad().scale_(inv_m);
  }
  stage.optimizer->step();
  stage.optimizer->zero_grad();
  if (predicted) {
    // Fold the realised update w_new − w_old into Δ̂ for the next prediction.
    const double beta = stage.pred_have_delta ? prediction_.beta : 0.0;
    for (std::size_t i = 0; i < params.size(); ++i) {
      auto dv = stage.pred_delta[i].data();
      const auto wv = params[i].value().data();
      const auto ov = stage.pred_true[i].data();
      for (std::size_t j = 0; j < dv.size(); ++j) {
        dv[j] = beta * dv[j] + (1.0 - beta) * (wv[j] - ov[j]);
      }
    }
    stage.pred_have_delta = true;
    stage.pred_predicted = false;
  }
  record_span(stage, trace::EventKind::kUpdate, instr, t0);
}

BatchStats PipelineRuntime::train_batch(const data::Batch& batch,
                                        std::size_t micro_batches) {
  submit(batch, micro_batches);
  return wait();
}

void PipelineRuntime::submit(const data::Batch& batch,
                             std::size_t micro_batches) {
  AVGPIPE_CHECK(!stopping_, "runtime already stopped");
  AVGPIPE_CHECK(in_flight_micro_batches_ == 0,
                "submit with a batch already in flight");
  if (failed()) {
    AVGPIPE_THROW("pipeline permanently failed: " << failure_message());
  }
  auto micro = data::slice_micro_batches(batch, micro_batches);
  step_.fetch_add(1, std::memory_order_release);
  // Safe here: no batch is in flight, so every payload channel is empty and
  // every worker is parked on its start channel.
  ensure_channels(micro_batches);

  for (auto& ch : stage_start_) {
    if (!ch->send(micro_batches)) {
      AVGPIPE_THROW("pipeline failed: " << failure_message());
    }
  }
  in_flight_micro_batches_ = micro_batches;
  // The driver thread is the one producer of the stage-0 feed link (no
  // batch is in flight, so no other thread touches input_'s send side).
  common::RoleGuard feed_role(input_->producer_role());
  for (std::size_t i = 0; i < micro.size(); ++i) {
    // A closed (failed) channel drops the message; the failure surfaces at
    // the done barrier in wait(). The feed holds M messages, so this never
    // parks.
    input_->send(ActMessage{static_cast<int>(i), std::move(micro[i].inputs),
                            std::move(micro[i].targets)});
  }
}

BatchStats PipelineRuntime::wait() {
  const std::size_t micro_batches = in_flight_micro_batches_;
  AVGPIPE_CHECK(micro_batches > 0, "wait without a submitted batch");
  in_flight_micro_batches_ = 0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    auto d = done_->recv();
    if (!d.has_value()) {
      const std::string why = failure_message();
      AVGPIPE_THROW("pipeline failed: "
                    << (why.empty() ? "done channel closed mid-batch" : why));
    }
  }

  BatchStats stats;
  stats.micro_batches = micro_batches;
  stats.loss = stages_.back()->loss_sum /
               static_cast<double>(micro_batches);
  return stats;
}

std::vector<StageState> PipelineRuntime::export_stage_state() const {
  std::vector<StageState> out;
  out.reserve(stages_.size());
  for (const auto& stage : stages_) {
    StageState s;
    s.optimizer = stage->optimizer->export_state();
    s.pred_delta.reserve(stage->pred_delta.size());
    for (const auto& d : stage->pred_delta) s.pred_delta.push_back(d.clone());
    s.pred_have_delta = stage->pred_have_delta;
    out.push_back(std::move(s));
  }
  return out;
}

void PipelineRuntime::import_stage_state(const std::vector<StageState>& state) {
  AVGPIPE_CHECK(state.size() == stages_.size(),
                "stage-state count " << state.size() << " != " << stages_.size()
                                     << " stages (partitioning mismatch)");
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    Stage& stage = *stages_[i];
    stage.optimizer->import_state(state[i].optimizer);
    // The EMA buffers are lazily sized by begin_prediction; a restore before
    // the first predicted batch recreates them from the snapshot instead.
    stage.pred_delta.clear();
    stage.pred_delta.reserve(state[i].pred_delta.size());
    for (const auto& d : state[i].pred_delta) {
      stage.pred_delta.push_back(d.clone());
    }
    stage.pred_have_delta = state[i].pred_have_delta;
    stage.pred_predicted = false;
  }
}

std::size_t PipelineRuntime::peak_stash(std::size_t stage) const {
  AVGPIPE_CHECK(stage < stages_.size(), "stage out of range");
  return stages_[stage]->peak_stash;
}

}  // namespace avgpipe::runtime
