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
/// A runtime is configured once (`RuntimeConfig`): the schedule, the
/// micro-batch count M, the stage links, every stage's instruction stream
/// and the trace buffers are fixed at construction, before the stage threads
/// start, so a batch only carries its step index to the workers.
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

/// Durable per-stage state for the checkpoint layer (`src/ckpt`): the stage
/// optimizer's snapshot plus the XPipe weight-prediction Δ̂. `pred_true` is
/// deliberately absent — it only holds meaning mid-batch, and stage state may
/// only be captured/restored between batches.
struct StageState {
  optim::OptimizerState optimizer;
  std::vector<tensor::Tensor> pred_delta;
  bool pred_have_delta = false;
};

/// A stage hook gets its stage index and that stage's trace buffer (null
/// when untraced).
using StageHook =
    std::function<void(std::size_t stage, trace::TraceBuffer* trace)>;

/// Everything a runtime is configured with, fixed for its lifetime.
struct RuntimeConfig {
  /// One of kAfab / kOneFOneB / kAdvanceForward.
  schedule::Kind kind = schedule::Kind::kOneFOneB;
  /// AFP advance count (0 = derive K-1).
  std::size_t advance_num = 0;
  /// M: every batch is sliced into this many micro-batches.
  std::size_t micro_batches = 4;
  /// Per-stage-thread share of the global kernel pool (PartitionGuard): each
  /// stage worker fans its tensor kernels out over at most this many threads
  /// (itself included), so K stages never oversubscribe the pool. 0 derives
  /// stage_workers_from_env(K) (AVGPIPE_STAGE_THREADS, else a fair split).
  std::size_t stage_workers = 0;
  /// Stage workers record wall-clock compute spans, recv-wait spans and
  /// channel-occupancy counters into it. Must outlive the runtime.
  trace::Tracer* tracer = nullptr;
  /// The replica number under core::AvgPipe, which fault-plan records match
  /// and trace events carry.
  std::size_t pipeline_index = 0;
  /// Worker loops consult its step-windowed records — straggler sleeps after
  /// ops, deterministic send drops with retry penalties, extra send latency —
  /// and recvs switch to timeout + exponential backoff so a silent peer is
  /// eventually declared dead. A null or empty plan leaves every hot path
  /// branch-free. Defaults to the AVGPIPE_FAULT_PLAN plan, so a runtime
  /// built without a plan still sees an injected one. Must outlive the
  /// runtime.
  const fault::FaultPlan* faults = fault::env_plan();
  /// XPipe-style weight prediction (Guan et al. 2019), per stage and batch-
  /// granular: at batch start each stage runs its forward/backward on
  /// predicted weights ŵ = w + lookahead·Δ̂, Δ̂ being the stage's last
  /// realised per-batch optimizer update; the update itself is applied to
  /// the true weights w. 0 disables the hook (bit-identical to no prediction).
  double prediction_lookahead = 0.0;
  /// Run on each stage thread before the stage's first instruction of every
  /// batch, and after its last one (the optimizer update). Both run inside
  /// the batch's failure scope: a throw fails the batch. Either may be empty.
  StageHook begin_hook = {};
  StageHook end_hook = {};
};

/// Pipeline over a partitioned Sequential model.
class PipelineRuntime {
 public:
  /// \param model the full model; stage views share its parameters.
  /// \param boundaries first layer index of stages 1..K-1 (see
  ///        Sequential::partition).
  /// \param make_optimizer constructs each stage's local optimizer.
  /// Throws avgpipe::Error on a flush-free schedule kind, an advance count
  /// below the 1F1B minimum, M = 0 or a negative lookahead.
  PipelineRuntime(nn::Sequential model, std::vector<std::size_t> boundaries,
                  const OptimizerFactory& make_optimizer, LossFn loss,
                  RuntimeConfig config = {});
  ~PipelineRuntime();

  PipelineRuntime(const PipelineRuntime&) = delete;
  PipelineRuntime& operator=(const PipelineRuntime&) = delete;

  /// Train on one batch sliced into M micro-batches: submit, then wait.
  ///
  /// Throws avgpipe::Error if any stage worker fails (uncaught exception,
  /// injected fault, unresponsive peer, or a throwing stage hook); the
  /// message carries the failing stage index and instruction. A failed
  /// runtime is permanently dead: every later batch rethrows the stored
  /// failure.
  BatchStats train_batch(const data::Batch& batch);
  /// Dispatch one batch to the stage threads without blocking, so one
  /// driver thread can run several pipelines at once. One batch at a time.
  void submit(const data::Batch& batch);
  /// Block until the submitted batch finished on every stage (its optimizer
  /// step and end hook included).
  BatchStats wait();

  /// Whether a stage worker has failed (see train_batch).
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  /// First recorded failure, empty if none.
  std::string failure_message() const;

  /// Snapshot the durable per-stage state (optimizer slots + prediction
  /// Δ̂), ordered by stage index. Only legal between train_batch calls,
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

  /// The resolved kernel-pool share of each stage thread.
  std::size_t stage_workers() const { return config_.stage_workers; }

  /// Bounded per-link capacity of the stage-to-stage channels for a batch of
  /// `micro_batches`: the producer's maximum forward run-ahead over its
  /// consumer (schedule-derived), plus one slot of slack. The links are
  /// built at link_capacity(M); verify::ModelConfig::link_capacity models
  /// other capacities offline. Exposed for tests.
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
  void run_update(Stage& stage, const schedule::Instr& instr, long step);
  /// Batch start under weight prediction: stash the true weights and jump to
  /// ŵ = w + lookahead·Δ̂ (no-op before the first realised update exists).
  void begin_prediction(Stage& stage, long step);
  /// A span of `instr`, tagged with the step its start token carried.
  void record_span(Stage& stage, trace::EventKind kind,
                   const schedule::Instr& instr, long step, Seconds t_begin);
  void record_counter(Stage& stage, trace::CounterId id, double value);
  void record_queue_depth(Stage& stage, std::size_t depth);

  /// Record the first failure, close every channel (peers unwind on the
  /// closed-channel checks) and mark the runtime dead.
  void fail(const std::string& what);
  void close_all();

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
  /// Fixed at construction (advance_num and stage_workers resolved), before
  /// any stage thread starts, so workers read it without synchronisation.
  RuntimeConfig config_;
  bool faults_active_ = false;  ///< config_.faults holds any record

  struct Stage {
    std::size_t index = 0;
    nn::Sequential module;  // view sharing parameters with model_
    std::unique_ptr<optim::Optimizer> optimizer;
    std::vector<schedule::Instr> program;  // one batch worth of instrs
    std::unordered_map<int, Stash> stash;
    std::size_t peak_stash = 0;
    double loss_sum = 0;  // last stage only
    trace::TraceBuffer* trace_buf = nullptr;  // null when untraced
    // Weight-prediction state (worker-thread-local, touched only between a
    // start-channel recv and the done send): the stashed true weights for
    // the in-flight batch, and the last realised per-batch update Δ̂.
    std::vector<tensor::Tensor> pred_true;
    std::vector<tensor::Tensor> pred_delta;
    bool pred_have_delta = false;
    bool pred_predicted = false;  ///< this batch runs on predicted weights
    // Perf-counter state (worker-thread-local): the last sampled readings of
    // the inbound links' slow-path counters (per-batch deltas become
    // kParkCount/kSpinCount samples).
    std::uint64_t last_parks = 0;
    std::uint64_t last_spins = 0;
    std::thread thread;
  };
  std::vector<std::unique_ptr<Stage>> stages_;

  // Channels: acts_[k] carries stage k -> k+1, grads_[k] carries k+1 -> k.
  // Every payload link is strictly single-producer/single-consumer (one
  // upstream worker, one downstream worker; input_ is driver -> stage 0),
  // so they use the lock-free SPSC specialization. Capacities are derived
  // from the schedule (link_capacity(M)), not a blanket constant.
  std::vector<std::unique_ptr<SpscChannel<ActMessage>>> acts_;
  std::vector<std::unique_ptr<SpscChannel<GradMessage>>> grads_;
  std::unique_ptr<SpscChannel<ActMessage>> input_;  // feeds stage 0
  // Per-batch coordination (done_ is many-producers -> driver, so MPMC). A
  // start token carries the batch's step index, which fault-plan windows
  // and message keys use.
  std::unique_ptr<Channel<int>> done_;  // stages report batch done
  std::vector<std::unique_ptr<Channel<long>>> stage_start_;
  bool stopping_ = false;

  // Driver-only batch state: the next step index and whether a submitted
  // batch awaits its wait().
  long next_step_ = 0;
  bool in_flight_ = false;

  std::atomic<bool> failed_{false};
  mutable common::Mutex failure_mutex_;
  std::string failure_ GUARDED_BY(failure_mutex_);
};

/// Convenience: mean softmax cross-entropy loss head.
LossFn cross_entropy_loss();

}  // namespace avgpipe::runtime
