#include "runtime/pipeline_runtime.hpp"

#include <chrono>
#include <sstream>

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
                                 LossFn loss, RuntimeConfig config)
    : model_(std::move(model)),
      loss_(std::move(loss)),
      config_(std::move(config)) {
  // Validate here rather than in the worker threads: a bad configuration
  // must surface as an exception to the caller, not terminate a worker.
  AVGPIPE_CHECK(config_.kind == schedule::Kind::kAfab ||
                    config_.kind == schedule::Kind::kOneFOneB ||
                    config_.kind == schedule::Kind::kAdvanceForward,
                "runtime supports the flushed schedules; got "
                    << schedule::to_string(config_.kind));
  AVGPIPE_CHECK(config_.prediction_lookahead >= 0.0,
                "prediction lookahead must be >= 0, got "
                    << config_.prediction_lookahead);
  auto views = model_.partition(boundaries);
  const std::size_t k = views.size();
  if (config_.advance_num == 0) config_.advance_num = k - 1;
  AVGPIPE_CHECK(config_.kind != schedule::Kind::kAdvanceForward ||
                    config_.advance_num + 1 >= k,
                "advance_num " << config_.advance_num
                               << " below the 1F1B minimum " << k - 1);
  // Intra-stage kernel parallelism: by default each stage thread claims an
  // equal share of the pool budget (AVGPIPE_STAGE_THREADS overrides).
  if (config_.stage_workers == 0) {
    config_.stage_workers = stage_workers_from_env(k);
  }
  faults_active_ = config_.faults != nullptr && !config_.faults->empty();

  // M is fixed, so one schedule serves every batch (and rejects M = 0).
  schedule::ScheduleParams params;
  params.kind = config_.kind;
  params.num_stages = k;
  params.micro_batches = config_.micro_batches;
  params.num_batches = 1;
  params.advance_num = config_.advance_num;
  auto sched = schedule::make_schedule(params);

  done_ = std::make_unique<Channel<int>>(k);
  for (std::size_t i = 0; i < k; ++i) {
    auto stage = std::make_unique<Stage>();
    stage->index = i;
    stage->module = std::move(views[i]);
    stage->optimizer = make_optimizer(stage->module.parameters());
    stage->program = std::move(sched.stages[i].instrs);
    if (config_.tracer != nullptr) {
      stage->trace_buf = config_.tracer->create_buffer();
    }
    stage_start_.push_back(std::make_unique<Channel<long>>(kStartCapacity));
    stages_.push_back(std::move(stage));
  }
  // Every link holds a whole batch's run-ahead without back-pressure. The
  // driver enqueues the whole batch up front; sizing the feed channel to M
  // keeps submit from parking mid-dispatch.
  const std::size_t link_cap = link_capacity(config_.micro_batches);
  input_ = std::make_unique<SpscChannel<ActMessage>>(
      std::max(config_.micro_batches, link_cap));
  for (std::size_t i = 0; i + 1 < k; ++i) {
    acts_.push_back(std::make_unique<SpscChannel<ActMessage>>(link_cap));
    grads_.push_back(std::make_unique<SpscChannel<GradMessage>>(link_cap));
  }
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
  // Schedule-derived bound (see schedule::max_send_run_ahead; the verify::
  // model checker proves the run-ahead is exact for every reachable
  // interleaving), plus one slot of slack so a send at the exact bound
  // never parks — faulty_send() asserts that contract.
  return schedule::max_send_run_ahead(config_.kind, stages_.size(),
                                      micro_batches, config_.advance_num) +
         1;
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

void PipelineRuntime::record_span(Stage& stage, trace::EventKind kind,
                                  const schedule::Instr& instr, long step,
                                  Seconds t_begin) {
  if (stage.trace_buf == nullptr) return;
  trace::TraceEvent ev;
  ev.kind = kind;
  ev.pipeline = static_cast<std::uint32_t>(config_.pipeline_index);
  ev.stage = static_cast<std::uint32_t>(stage.index);
  ev.batch = static_cast<std::int32_t>(step);
  ev.micro_batch = instr.micro_batch;
  ev.t_begin = t_begin;
  ev.t_end = config_.tracer->wall_now();
  stage.trace_buf->record(ev);
}

void PipelineRuntime::record_counter(Stage& stage, trace::CounterId id,
                                     double value) {
  if (stage.trace_buf == nullptr) return;
  trace::TraceEvent ev;
  ev.kind = trace::EventKind::kCounter;
  ev.counter = id;
  ev.pipeline = static_cast<std::uint32_t>(config_.pipeline_index);
  ev.stage = static_cast<std::uint32_t>(stage.index);
  ev.t_begin = ev.t_end = config_.tracer->wall_now();
  ev.value = value;
  stage.trace_buf->record(ev);
}

void PipelineRuntime::record_queue_depth(Stage& stage, std::size_t depth) {
  record_counter(stage, trace::CounterId::kQueueDepth,
                 static_cast<double>(depth));
}

template <typename T>
std::optional<T> PipelineRuntime::robust_recv(Stage& stage, SpscChannel<T>& ch,
                                              const char* what) {
  if (!faults_active_) return ch.recv();
  fault::Backoff backoff(kRecvInitialWait, kRecvMaxWait, kRecvDeadline);
  T out;
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
  // The batch fails like any other error; AvgPipe detaches the pipeline and
  // escalates to a checkpoint restore.
  std::ostringstream msg;
  msg << "stage " << stage.index << ": peer unresponsive on " << what
      << " after " << backoff.attempts() << " attempts (deadline "
      << kRecvDeadline << "s)";
  throw Error(msg.str());
}

template <typename T>
void PipelineRuntime::faulty_send(Stage& stage, SpscChannel<T>& ch, T msg,
                                  const schedule::Instr& instr, long step,
                                  fault::LinkDir dir) {
  if (faults_active_) {
    const std::uint64_t key = fault::message_key(
        step, instr.micro_batch, static_cast<int>(stage.index), dir);
    const Seconds t0 = stage.trace_buf ? config_.tracer->wall_now() : 0;
    int attempt = 0;
    Seconds retry = 0;
    while (config_.faults->should_drop(
        static_cast<int>(config_.pipeline_index),
        static_cast<int>(stage.index), step, key, attempt, &retry)) {
      ++attempt;
      AVGPIPE_CHECK(attempt < kMaxSendAttempts,
                    "stage " << stage.index << ": message (step " << step
                             << ", micro-batch " << instr.micro_batch
                             << ") dropped " << attempt
                             << " consecutive times; link declared dead");
      fault::sleep_for(retry);
    }
    if (attempt > 0) {
      record_span(stage, trace::EventKind::kFaultDrop, instr, step, t0);
    }
    // Degraded-link windows add per-message latency on this boundary.
    const int link = dir == fault::LinkDir::kActivation
                         ? static_cast<int>(stage.index)
                         : static_cast<int>(stage.index) - 1;
    fault::sleep_for(config_.faults->send_delay(link, step));
  }
  if (!faults_active_) {
    // The "+1 slack" contract: a steady-state send never finds its link
    // full. Skipped under an active fault plan, where a crashed peer
    // legitimately leaves links full. The producer-side size() read is
    // conservative: head is monotone, so an observed-full channel really did
    // hold capacity() messages at the moment our previous send completed — a
    // genuine violation of the run-ahead + 1 provisioning, never a transient
    // artifact.
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
  // Every parallel_for issued from this thread (GEMM row-panel fan-out) is
  // capped at this stage's worker share, so K concurrently-running stages
  // cannot oversubscribe the pool.
  PartitionGuard partition(config_.stage_workers);
  while (const auto step = stage_start_[stage.index]->recv()) {
    stage.loss_sum = 0;

    // Any exception inside an instruction — a CHECK failure, an injected
    // fault, a model bug — would previously escape the thread and
    // std::terminate the process. Capture it with the stage/instruction
    // context, fail the batch and let every peer unwind over the closed
    // channels instead.
    const schedule::Instr* current = nullptr;
    try {
      if (config_.begin_hook) config_.begin_hook(stage.index, stage.trace_buf);
      begin_prediction(stage, *step);
      for (const auto& instr : stage.program) {
        current = &instr;
        run_instr(stage, instr, *step);
      }
      if (config_.end_hook) {
        // Flushed schedules end every stage's program with its update, so
        // the hook sees this batch's committed weights.
        AVGPIPE_CHECK(
            stage.program.back().kind == schedule::OpKind::kUpdate,
            "stage program does not end with its update");
        current = nullptr;
        config_.end_hook(stage.index, stage.trace_buf);
      }
    } catch (const std::exception& e) {
      std::ostringstream msg;
      msg << "stage " << stage.index;
      if (current != nullptr) {
        msg << " [" << schedule::to_string(current->kind) << " b" << *step
            << "." << current->micro_batch << "]";
      }
      msg << ": " << e.what();
      fail(msg.str());
      return;  // the worker is dead; the runtime is permanently failed
    }
    if (stage.trace_buf != nullptr) {
      // Spin-vs-park telemetry for this stage's inbound links (the side this
      // thread blocks on), as per-batch deltas.
      std::uint64_t parks = 0, spins = 0;
      const SpscChannel<ActMessage>& act_in =
          stage.index == 0 ? *input_ : *acts_[stage.index - 1];
      parks += act_in.parks();
      spins += act_in.spin_waits();
      if (stage.index + 1 < stages_.size()) {
        parks += grads_[stage.index]->parks();
        spins += grads_[stage.index]->spin_waits();
      }
      record_counter(stage, trace::CounterId::kParkCount,
                     static_cast<double>(parks - stage.last_parks));
      record_counter(stage, trace::CounterId::kSpinCount,
                     static_cast<double>(spins - stage.last_spins));
      stage.last_parks = parks;
      stage.last_spins = spins;
    }
    done_->send(static_cast<int>(stage.index));
  }
}

AVGPIPE_HOT_PATH
void PipelineRuntime::run_instr(Stage& stage, const schedule::Instr& instr,
                                long step) {
  const int pipeline = static_cast<int>(config_.pipeline_index);
  if (faults_active_ &&
      config_.faults->should_kill(pipeline, static_cast<int>(stage.index),
                                  step, instr.micro_batch)) {
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
          ? config_.faults->straggler_factor(
                pipeline, static_cast<int>(stage.index), step)
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
    case schedule::OpKind::kUpdate: run_update(stage, instr, step); break;
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
    const Seconds t0 = stage.trace_buf ? config_.tracer->wall_now() : 0;
    fault::sleep_for((slow - 1.0) * elapsed_since(w0));
    record_span(stage, trace::EventKind::kFaultStraggler, instr, step, t0);
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
  const Seconds t_wait = stage.trace_buf ? config_.tracer->wall_now() : 0;
  auto msg = robust_recv(stage, in_ch, "activation");
  record_span(stage, trace::EventKind::kWaitBubble, instr, step, t_wait);
  record_queue_depth(stage, in_ch.size());
  AVGPIPE_CHECK(msg.has_value(), "activation channel closed mid-batch");
  AVGPIPE_CHECK(msg->micro_batch == instr.micro_batch,
                "stage " << stage.index << " expected micro-batch "
                         << instr.micro_batch << ", got " << msg->micro_batch);

  // The boundary input needs a gradient on every stage but the first.
  const Seconds t0 = stage.trace_buf ? config_.tracer->wall_now() : 0;
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
    SpscChannel<ActMessage>& out_ch = *acts_[stage.index];
    common::RoleGuard out_role(out_ch.producer_role());
    faulty_send(stage, out_ch,
                ActMessage{instr.micro_batch, out.value(),
                           std::move(msg->targets)},
                instr, step, fault::LinkDir::kActivation);
    stash.output = out;
  }
  stage.stash.emplace(instr.micro_batch, std::move(stash));
  stage.peak_stash = std::max(stage.peak_stash, stage.stash.size());
  record_span(stage, trace::EventKind::kForward, instr, step, t0);
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

  Seconds t0 = stage.trace_buf ? config_.tracer->wall_now() : 0;
  if (last) {
    stash.output.backward();  // loss scalar, seed = 1
  } else {
    SpscChannel<GradMessage>& grad_ch = *grads_[stage.index];
    // One consumer per inbound gradient link: this stage thread.
    common::RoleGuard grad_role(grad_ch.consumer_role());
    const Seconds t_wait = t0;
    auto grad = robust_recv(stage, grad_ch, "gradient");
    record_span(stage, trace::EventKind::kWaitBubble, instr, step, t_wait);
    record_queue_depth(stage, grad_ch.size());
    AVGPIPE_CHECK(grad.has_value(), "gradient channel closed mid-batch");
    AVGPIPE_CHECK(grad->micro_batch == instr.micro_batch,
                  "stage " << stage.index << " expected gradient "
                           << instr.micro_batch << ", got "
                           << grad->micro_batch);
    if (stage.trace_buf) t0 = config_.tracer->wall_now();
    stash.output.backward(grad->payload);
  }
  if (!first) {
    // Ownership transfer, not a clone: the stash entry dies at end of scope,
    // so the sent buffer has no other owner on this side. The receiver's
    // backward adopts it as a seed and copies on write only while another
    // handle still shares it. One producer per outbound gradient link: this
    // stage thread.
    SpscChannel<GradMessage>& out_ch = *grads_[stage.index - 1];
    common::RoleGuard out_role(out_ch.producer_role());
    faulty_send(stage, out_ch,
                GradMessage{instr.micro_batch,
                            std::move(stash.input.mutable_grad())},
                instr, step, fault::LinkDir::kGradient);
  }
  record_span(stage, trace::EventKind::kBackward, instr, step, t0);
}

void PipelineRuntime::begin_prediction(Stage& stage, long step) {
  if (config_.prediction_lookahead == 0.0) return;
  auto values = tensor::values_of(stage.optimizer->params());
  if (stage.pred_true.empty()) {
    stage.pred_true = tensor::clone_set(values);
  } else {
    tensor::copy_into(stage.pred_true, values);
  }
  // Sized independently of pred_true: import_stage_state restores Δ̂ before
  // this stage has ever predicted (pred_true still empty).
  if (stage.pred_delta.empty()) stage.pred_delta = tensor::zeros_like(values);
  stage.pred_predicted = true;
  // Nothing to extrapolate from until the first realised update: the batch
  // then runs on the true weights (and seeds Δ̂ in run_update).
  if (!stage.pred_have_delta) return;
  const Seconds t0 = stage.trace_buf ? config_.tracer->wall_now() : 0;
  const double lookahead = config_.prediction_lookahead;
  tensor::for_each_shard(
      [lookahead](std::span<tensor::Scalar> w,
                  std::span<const tensor::Scalar> d) {
        for (std::size_t j = 0; j < w.size(); ++j) w[j] += lookahead * d[j];
      },
      values, stage.pred_delta);
  if (stage.trace_buf != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kWeightPrediction;
    ev.pipeline = static_cast<std::uint32_t>(config_.pipeline_index);
    ev.stage = static_cast<std::uint32_t>(stage.index);
    ev.batch = static_cast<std::int32_t>(step);
    ev.t_begin = t0;
    ev.t_end = config_.tracer->wall_now();
    stage.trace_buf->record(ev);
  }
}

void PipelineRuntime::run_update(Stage& stage, const schedule::Instr& instr,
                                 long step) {
  // Accumulated micro-batch gradients -> batch-mean gradient.
  const Seconds t0 = stage.trace_buf ? config_.tracer->wall_now() : 0;
  const auto& params = stage.optimizer->params();
  const bool predicted = stage.pred_predicted;
  auto values = predicted ? tensor::values_of(params)
                          : std::vector<tensor::Tensor>{};
  // The batch's gradients were computed at the predicted weights ŵ; the
  // update itself lands on the true weights stashed at batch start (XPipe
  // semantics: predict for compute, correct on apply).
  if (predicted) tensor::copy_into(values, stage.pred_true);
  const double inv_m = 1.0 / static_cast<double>(config_.micro_batches);
  for (auto& p : params) {
    const_cast<tensor::Variable&>(p).mutable_grad().scale_(inv_m);
  }
  stage.optimizer->step();
  stage.optimizer->zero_grad();
  if (predicted) {
    // The realised update w_new − w_old becomes Δ̂ for the next prediction.
    tensor::for_each_shard(
        [](std::span<tensor::Scalar> d, std::span<const tensor::Scalar> w,
           std::span<const tensor::Scalar> o) {
          for (std::size_t j = 0; j < d.size(); ++j) d[j] = w[j] - o[j];
        },
        stage.pred_delta, values, stage.pred_true);
    stage.pred_have_delta = true;
    stage.pred_predicted = false;
  }
  record_span(stage, trace::EventKind::kUpdate, instr, step, t0);
}

BatchStats PipelineRuntime::train_batch(const data::Batch& batch) {
  submit(batch);
  return wait();
}

void PipelineRuntime::submit(const data::Batch& batch) {
  AVGPIPE_CHECK(!stopping_, "runtime already stopped");
  AVGPIPE_CHECK(!in_flight_, "submit with a batch already in flight");
  if (failed()) {
    AVGPIPE_THROW("pipeline permanently failed: " << failure_message());
  }
  auto micro = data::slice_micro_batches(batch, config_.micro_batches);
  const long step = next_step_++;
  for (auto& ch : stage_start_) {
    if (!ch->send(step)) {
      AVGPIPE_THROW("pipeline failed: " << failure_message());
    }
  }
  in_flight_ = true;
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
  AVGPIPE_CHECK(in_flight_, "wait without a submitted batch");
  in_flight_ = false;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    auto d = done_->recv();
    if (!d.has_value()) {
      const std::string why = failure_message();
      AVGPIPE_THROW("pipeline failed: "
                    << (why.empty() ? "done channel closed mid-batch" : why));
    }
  }

  BatchStats stats;
  stats.micro_batches = config_.micro_batches;
  stats.loss = stages_.back()->loss_sum /
               static_cast<double>(config_.micro_batches);
  return stats;
}

std::vector<StageState> PipelineRuntime::export_stage_state() const {
  std::vector<StageState> out;
  out.reserve(stages_.size());
  for (const auto& stage : stages_) {
    StageState s;
    s.optimizer = stage->optimizer->export_state();
    s.pred_delta = tensor::clone_set(stage->pred_delta);
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
    // The Δ̂ buffers are lazily sized by begin_prediction; a restore before
    // the first predicted batch recreates them from the snapshot instead.
    stage.pred_delta = tensor::clone_set(state[i].pred_delta);
    stage.pred_have_delta = state[i].pred_have_delta;
    stage.pred_predicted = false;
  }
}

std::size_t PipelineRuntime::peak_stash(std::size_t stage) const {
  AVGPIPE_CHECK(stage < stages_.size(), "stage out of range");
  return stages_[stage]->peak_stash;
}

}  // namespace avgpipe::runtime
