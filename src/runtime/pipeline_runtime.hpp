#pragma once

/// \file pipeline_runtime.hpp
/// Threaded pipeline-parallel training over real tensors.
///
/// One worker thread per stage (the simulated "GPU process"), connected by
/// bounded channels carrying boundary activations forward and boundary
/// gradients backward — the message-passing structure of Figure 1. Each
/// worker executes its stage's instruction stream from schedule/ verbatim,
/// so AFAB, 1F1B and advance-forward orderings are all runnable on real
/// models and must produce identical numerics (a property the tests check:
/// the schedule only changes *when* work happens, never *what* is computed).
///
/// Gradients are accumulated over the micro-batches of a batch and applied
/// once per batch by per-stage optimizers, which reproduces exactly the
/// update of non-pipelined training on the full batch.

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/annotations.hpp"
#include "common/queue.hpp"
#include "data/dataset.hpp"
#include "fault/shim.hpp"
#include "nn/sequential.hpp"
#include "optim/optimizer.hpp"
#include "schedule/schedule.hpp"
#include "trace/trace.hpp"

namespace avgpipe::runtime {

using OptimizerFactory = std::function<std::unique_ptr<optim::Optimizer>(
    std::vector<tensor::Variable> params)>;

/// Loss head applied at the last stage: (logits, targets) -> scalar loss.
using LossFn = std::function<tensor::Variable(const tensor::Variable& logits,
                                              const std::vector<int>& targets)>;

struct BatchStats {
  double loss = 0;          ///< mean loss over the batch
  std::size_t micro_batches = 0;
};

/// XPipe-style weight prediction (Guan et al. 2019), per stage and batch-
/// granular: at batch start each stage runs its forward/backward on predicted
/// weights ŵ = w + lookahead·Δ̂, where Δ̂ is an EMA (weight `beta` on the old
/// value) of the realised per-batch optimizer updates; the update itself is
/// applied to the true weights `w`. lookahead = 0 disables the hook entirely
/// (bit-identical to no prediction).
struct PredictionConfig {
  double lookahead = 0.0;
  double beta = 0.0;
};

/// Durable per-stage state for the checkpoint layer (`src/ckpt`): the stage
/// optimizer's snapshot plus the XPipe weight-prediction EMA. `pred_true` is
/// deliberately absent — it only holds meaning mid-batch, and stage state may
/// only be captured/restored between batches.
struct StageState {
  optim::OptimizerState optimizer;
  std::vector<tensor::Tensor> pred_delta;
  bool pred_have_delta = false;
};

/// Pipeline over a partitioned Sequential model.
class PipelineRuntime {
 public:
  /// \param model the full model; stage views share its parameters.
  /// \param boundaries first layer index of stages 1..K-1 (see
  ///        Sequential::partition).
  /// \param make_optimizer constructs each stage's local optimizer.
  /// \param kind one of kAfab / kOneFOneB / kAdvanceForward.
  /// \param advance_num AFP advance count (0 = derive K-1).
  PipelineRuntime(nn::Sequential model, std::vector<std::size_t> boundaries,
                  const OptimizerFactory& make_optimizer, LossFn loss,
                  schedule::Kind kind = schedule::Kind::kOneFOneB,
                  std::size_t advance_num = 0);
  ~PipelineRuntime();

  PipelineRuntime(const PipelineRuntime&) = delete;
  PipelineRuntime& operator=(const PipelineRuntime&) = delete;

  /// Train on one batch sliced into `micro_batches`: submit, then wait.
  ///
  /// Throws avgpipe::Error if any stage worker fails (uncaught exception,
  /// injected fault, unresponsive peer, or a throwing stage hook); the
  /// message carries the failing stage index and instruction. A failed
  /// runtime is permanently dead: every later batch rethrows the stored
  /// failure.
  BatchStats train_batch(const data::Batch& batch, std::size_t micro_batches);
  /// Dispatch one batch to the stage threads without blocking, so one
  /// driver thread can run several pipelines at once. One batch at a time.
  void submit(const data::Batch& batch, std::size_t micro_batches);
  /// Block until the submitted batch finished on every stage (its optimizer
  /// step and end hook included).
  BatchStats wait();

  /// A stage hook gets its stage index and that stage's trace buffer (null
  /// when untraced).
  using StageHook =
      std::function<void(std::size_t stage, trace::TraceBuffer* trace)>;
  /// Run `begin` on each stage thread before the stage's first instruction
  /// of every batch and `end` after its last one, the optimizer update.
  /// Both run inside the batch's failure scope: a throw fails the batch.
  /// Either may be empty. Must be called before the first batch.
  void set_stage_hooks(StageHook begin, StageHook end);

  /// Stage k's parameters (handles sharing the model's), in model order.
  std::vector<tensor::Variable> stage_parameters(std::size_t k) const;

  /// Whether a stage worker has failed (see train_batch).
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  /// First recorded failure, empty if none.
  std::string failure_message() const;

  /// Snapshot the durable per-stage state (optimizer slots + prediction
  /// EMA), ordered by stage index. Only legal between train_batch calls,
  /// when every worker is parked on its start channel and the driver owns
  /// the stage structs.
  std::vector<StageState> export_stage_state() const;
  /// Restore a snapshot from a same-partitioning runtime. Same legality
  /// window as export_stage_state. Throws avgpipe::Error on a stage-count or
  /// shape mismatch.
  void import_stage_state(const std::vector<StageState>& state);

  /// The underlying full model (parameters shared with the stages). Only
  /// safe to use between train_batch calls.
  nn::Sequential& model() { return model_; }

  std::size_t num_stages() const { return stages_.size(); }

  /// Peak number of stashed activations observed on stage k (for memory
  /// assertions mirroring the paper's stash bounds).
  std::size_t peak_stash(std::size_t stage) const;

  /// Attach a tracer: stage workers then record wall-clock compute spans,
  /// recv-wait spans and channel-occupancy counters, tagged with the
  /// pipeline index. Must be called before the first train_batch; the
  /// tracer must outlive this runtime.
  void set_tracer(trace::Tracer* tracer);
  /// The replica number under core::AvgPipe (default 0), which fault-plan
  /// records match and trace events carry. Set before the first batch.
  void set_pipeline_index(std::size_t index);

  /// Attach a fault plan (nullptr to clear): worker loops then consult its
  /// step-windowed records — straggler sleeps after ops, deterministic send
  /// drops with retry penalties, extra send latency — and recvs switch to
  /// timeout + exponential backoff so a silent peer is eventually declared
  /// dead. Must be called before the first train_batch; the plan must
  /// outlive this runtime. Defaults to fault::env_plan(). A null or empty
  /// plan leaves every hot path branch-free.
  void set_faults(const fault::FaultPlan* plan);
  const fault::FaultPlan* faults() const { return faults_; }

  /// Enable XPipe-style weight prediction (see PredictionConfig). Must be
  /// called before the first train_batch; prediction state is worker-thread-
  /// local per stage, so no cross-thread synchronisation is added.
  void set_weight_prediction(const PredictionConfig& config);
  const PredictionConfig& weight_prediction() const { return prediction_; }

  /// Per-stage-thread share of the global kernel pool (PartitionGuard): each
  /// stage worker fans its tensor kernels out over at most `workers` threads
  /// (itself included), so K stages never oversubscribe the pool. 0 keeps
  /// the construction-time default (AVGPIPE_STAGE_THREADS, else a fair split
  /// over this runtime's stages). Must be called before the first
  /// train_batch; workers read it after the start-channel recv.
  void set_stage_workers(std::size_t workers);
  std::size_t stage_workers() const { return stage_workers_; }

  /// Core-pinning slot layout for this runtime's stage threads under
  /// AVGPIPE_PIN_THREADS: stage k pins to slot `first_slot + k` of
  /// `total_slots`. Defaults to [0, num_stages) — core::AvgPipe widens the
  /// layout across its replicas' N·K stage threads. Must be called
  /// before the first train_batch.
  void set_thread_slots(std::size_t first_slot, std::size_t total_slots);

  /// Bounded per-link capacity of the stage-to-stage channels for a batch of
  /// `micro_batches`: the producer's maximum forward run-ahead over its
  /// consumer (schedule-derived), plus one slot of slack. Not configurable;
  /// verify::ModelConfig::link_capacity models other capacities offline.
  /// Exposed for tests.
  std::size_t link_capacity(std::size_t micro_batches) const;

 private:
  /// Inter-stage messages are move-only: the send path transfers buffer
  /// ownership (activation values and boundary gradients are shared-storage
  /// tensors; a deep copy would double the steady-state traffic). The
  /// deleted copy operations make an accidental clone a compile error.
  struct ActMessage {
    int micro_batch = -1;
    tensor::Tensor payload;
    std::vector<int> targets;  ///< forwarded to the loss head

    ActMessage() = default;
    ActMessage(int mb, tensor::Tensor p, std::vector<int> t)
        : micro_batch(mb), payload(std::move(p)), targets(std::move(t)) {}
    ActMessage(ActMessage&&) = default;
    ActMessage& operator=(ActMessage&&) = default;
    ActMessage(const ActMessage&) = delete;
    ActMessage& operator=(const ActMessage&) = delete;
  };
  struct GradMessage {
    int micro_batch = -1;
    tensor::Tensor payload;

    GradMessage() = default;
    GradMessage(int mb, tensor::Tensor p)
        : micro_batch(mb), payload(std::move(p)) {}
    GradMessage(GradMessage&&) = default;
    GradMessage& operator=(GradMessage&&) = default;
    GradMessage(const GradMessage&) = delete;
    GradMessage& operator=(const GradMessage&) = delete;
  };
  struct Stash {
    tensor::Variable input;   ///< boundary input (grad receiver)
    tensor::Variable output;  ///< boundary output or loss
  };

  struct Stage;
  void worker_loop(Stage& stage);
  void run_instr(Stage& stage, const schedule::Instr& instr, long step);
  void run_forward(Stage& stage, const schedule::Instr& instr, long step);
  void run_backward(Stage& stage, const schedule::Instr& instr, long step);
  void run_update(Stage& stage, const schedule::Instr& instr);
  /// Batch start under weight prediction: stash the true weights and jump to
  /// ŵ = w + lookahead·Δ̂ (no-op before the first realised update exists).
  void begin_prediction(Stage& stage, long step);
  void record_span(Stage& stage, trace::EventKind kind,
                   const schedule::Instr& instr, Seconds t_begin);
  void record_counter(Stage& stage, trace::CounterId id, double value);
  void record_queue_depth(Stage& stage, std::size_t depth);

  /// Record the first failure, close every channel (peers unwind on the
  /// closed-channel checks) and mark the runtime dead.
  void fail(const std::string& what);
  void close_all();

  /// (Re)build the inter-stage channels so every link can hold a batch of
  /// `micro_batches` without deadlocking on back-pressure. Only legal when
  /// no batch is in flight (all payload channels empty, workers parked on
  /// their start channels); grows capacities monotonically.
  void ensure_channels(std::size_t micro_batches);

  /// recv on a stage link with fault-plan resilience: timeout + exponential
  /// backoff, a kRecvRetry counter per timeout, and an overall deadline
  /// after which the peer is declared unresponsive (throws). Plain blocking
  /// recv when no plan is active. The caller holds the link's consumer role
  /// (a RoleGuard on the same named link it passes in).
  template <typename T>
  std::optional<T> robust_recv(Stage& stage, SpscChannel<T>& ch,
                               const char* what) REQUIRES(ch.consumer_role());
  /// send on a stage link through the drop/delay shim; throws after too many
  /// consecutive injected drops (link declared dead) or when the channel is
  /// closed. The caller holds the link's producer role.
  template <typename T>
  void faulty_send(Stage& stage, SpscChannel<T>& ch, T msg,
                   const schedule::Instr& instr, long step,
                   fault::LinkDir dir) REQUIRES(ch.producer_role());

  nn::Sequential model_;
  LossFn loss_;
  schedule::Kind kind_;
  std::size_t advance_num_;

  struct Stage {
    std::size_t index = 0;
    nn::Sequential module;  // view sharing parameters with model_
    std::unique_ptr<optim::Optimizer> optimizer;
    std::vector<schedule::Instr> program;  // one batch worth of instrs
    std::unordered_map<int, Stash> stash;
    std::size_t peak_stash = 0;
    double loss_sum = 0;  // last stage only
    std::size_t micro_batches = 0;
    trace::TraceBuffer* trace_buf = nullptr;  // worker-owned, lazily created
    // Weight-prediction state (worker-thread-local, touched only between a
    // start-channel recv and the done send): the stashed true weights for
    // the in-flight batch, and the EMA of realised per-batch updates.
    std::vector<tensor::Tensor> pred_true;
    std::vector<tensor::Tensor> pred_delta;
    bool pred_have_delta = false;
    bool pred_predicted = false;  ///< this batch runs on predicted weights
    // Perf-counter state (worker-thread-local): whether this thread has been
    // pinned, and the last sampled readings of the inbound links' slow-path
    // counters (per-batch deltas become kParkCount/kSpinCount samples).
    bool pinned = false;
    std::uint64_t last_parks = 0;
    std::uint64_t last_spins = 0;
    std::thread thread;
  };
  std::vector<std::unique_ptr<Stage>> stages_;

  // Channels: acts_[k] carries stage k -> k+1, grads_[k] carries k+1 -> k.
  // Every payload link is strictly single-producer/single-consumer (one
  // upstream worker, one downstream worker; input_ is driver -> stage 0),
  // so they use the lock-free SPSC specialization. Capacities are derived
  // from the schedule in ensure_channels(), not a blanket constant.
  std::vector<std::unique_ptr<SpscChannel<ActMessage>>> acts_;
  std::vector<std::unique_ptr<SpscChannel<GradMessage>>> grads_;
  std::unique_ptr<SpscChannel<ActMessage>> input_;  // feeds stage 0
  // Per-batch coordination (done_ is many-producers -> driver, so MPMC).
  std::unique_ptr<Channel<int>> done_;  // stages report batch done
  std::vector<std::unique_ptr<Channel<std::size_t>>> stage_start_;
  std::size_t channel_micro_batches_ = 0;  ///< capacity ensure_channels saw
  /// Assert on every stage-link send that the "+1 slack" holds (a
  /// steady-state send must never find its channel full). Debug default,
  /// AVGPIPE_ASSERT_CHANNEL_SLACK override; skipped while a fault plan is
  /// active (a crashed peer legitimately leaves links full).
  bool assert_link_slack_ = false;
  bool stopping_ = false;

  // Tracing (optional), pipeline index and stage hooks: written before the
  // first batch, read by workers after a start-channel recv, so the channel
  // provides the ordering.
  trace::Tracer* tracer_ = nullptr;
  std::uint32_t pipeline_index_ = 0;
  StageHook begin_hook_;
  StageHook end_hook_;
  /// Micro-batches of the submitted batch (0: none in flight). Driver-only.
  std::size_t in_flight_micro_batches_ = 0;

  // Weight prediction (optional): written before the first batch, read by
  // workers after a start-channel recv (channel provides the ordering).
  PredictionConfig prediction_;
  bool prediction_active_ = false;

  // Intra-stage parallelism + thread placement: written before the first
  // batch, read by workers after a start-channel recv (channel provides the
  // ordering, same contract as tracer_/prediction_).
  std::size_t stage_workers_ = 1;
  std::size_t pin_first_slot_ = 0;
  std::size_t pin_total_slots_ = 0;

  // Fault injection (optional) and failure state. `step_` is the batch
  // index, bumped by train_batch before dispatch; workers read it after the
  // start-channel recv, so the channel again provides the ordering.
  const fault::FaultPlan* faults_ = nullptr;
  bool faults_active_ = false;
  std::atomic<long> step_{-1};
  std::atomic<bool> failed_{false};
  mutable common::Mutex failure_mutex_;
  std::string failure_ GUARDED_BY(failure_mutex_);
};

/// Convenience: mean softmax cross-entropy loss head.
LossFn cross_entropy_loss();

}  // namespace avgpipe::runtime
