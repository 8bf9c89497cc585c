#pragma once

/// \file avgpipe.hpp
/// AvgPipe: elastic-averaging pipelined training (the paper's system).
///
/// `AvgPipe` runs N parallel pipelines, each a threaded
/// `runtime::PipelineRuntime` over its own model replica, plus an
/// asynchronous reference-model process fed through a message queue (paper
/// Figure 6). One `train_iteration` consumes N batches. The reference model
/// is co-partitioned with the pipeline (paper §3): each stage thread runs
/// the policy local sync over its own parameter shard right after its
/// optimizer update, writing into reused buffers; synchronous and
/// asynchronous sync differ only in how many reference applies the driver
/// lets trail behind (0 or `sync_lag`). It is also the
/// update-rule trainer of the statistical-efficiency experiments: built with
/// `{boundaries = {}, micro_batches = 1, async_sync = false}` each replica
/// trains its whole batch as one step, so only the update rule matters.

#include <memory>
#include <optional>
#include <span>
#include <thread>

#include "ckpt/state.hpp"
#include "common/annotations.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "core/elastic.hpp"
#include "core/sync_compression.hpp"
#include "core/sync_policy.hpp"
#include "runtime/pipeline_runtime.hpp"
#include "runtime/semantics.hpp"

namespace avgpipe::core {

struct AvgPipeConfig {
  std::size_t num_pipelines = 2;  ///< N
  std::size_t micro_batches = 4;  ///< M
  double alpha = 0.0;             ///< 0 -> 1/N (paper default)
  /// Stage boundaries for pipeline partitioning (empty = single stage).
  std::vector<std::size_t> boundaries;
  schedule::Kind kind = schedule::Kind::kAdvanceForward;
  std::size_t advance_num = 0;  ///< 0 -> K-1
  /// Asynchronous elastic sync (paper §3.2's message-queue design taken off
  /// the critical path). Every stage's pull/push runs on that stage's thread
  /// against the latest *published* reference snapshot; this flag only sets
  /// how many reference applies the driver lets trail behind training.
  /// `false` means a lag of 0: the driver waits for every apply, so each
  /// pull sees fresh weights. `true` lets up to `sync_lag` applies stay in
  /// flight, trading bounded staleness (a pull may see a reference up to
  /// sync_lag applies old, and two stages of one replica may see different
  /// applies) for overlap of the reference process with the next
  /// iteration's training; sync_lag = 0 is then the same as `false`.
  bool async_sync = false;
  /// Max reference applies in flight when `async_sync` (ignored otherwise);
  /// then it must be below AvgPipe::kSyncQueueCapacity (checked at
  /// construction).
  std::size_t sync_lag = 1;
  /// Optional tracer (non-owning, must outlive the AvgPipe): every stage
  /// worker of every replica records wall-clock spans tagged with its
  /// pipeline index, including its shard's elastic pulls (❷–❸),
  /// the driver records membership, checkpoint and sync-lag events, and the
  /// reference process records apply spans plus a staleness counter (how
  /// many local updates were accumulated but not yet applied, ❹–❺).
  trace::Tracer* tracer = nullptr;
  /// Optional fault plan (non-owning, must outlive the AvgPipe; defaults to
  /// fault::env_plan()). Stragglers/drops are forwarded to every replica
  /// runtime; the driver itself consumes the step-windowed crash records
  /// (crash_at_step / rejoin_at_step).
  const fault::FaultPlan* faults = nullptr;
  /// The model-coupling rule (sync_policy.hpp). Defaults to the paper's
  /// elastic averaging; BSP/BMUF additionally reset replicas from the
  /// broadcast at round start, XPipe wires weight prediction into every
  /// replica runtime. `alpha` above only affects the elastic-family policies.
  SyncPolicyConfig sync;
  /// Optional durable checkpoint directory (non-owning, must outlive the
  /// AvgPipe). Enables save_checkpoint / restore_latest_checkpoint and — with
  /// `restore_on_failure` — the failure-escalation path.
  ckpt::CheckpointDir* checkpoints = nullptr;
  /// Escalate a pipeline failure (worker exception, including the runtime's
  /// peer-unresponsive deadline) beyond the elastic detach: immediately
  /// restore the failed pipeline's durable state from the newest loadable
  /// checkpoint and rejoin it. When no checkpoint is loadable the pipeline
  /// degrades to the plain broadcast rejoin. Requires `checkpoints`.
  bool restore_on_failure = false;
  /// Lossy compression of the sync transport (sync_compression.hpp): every
  /// replica→reference push and reference→replica broadcast is degraded to
  /// its codec round trip, with per-stream error-feedback residuals.
  /// `nullopt` resolves against AVGPIPE_SYNC_COMPRESS (default off); an
  /// explicit value pins the mode and ignores the environment — parity
  /// tests pin `off`, which leaves today's bit-exact path untouched.
  std::optional<SyncCompression> sync_compression;
};

/// The full threaded system. As a `runtime::TrainerBase` it consumes N
/// batches per iteration, one per pipeline.
class AvgPipe : public runtime::TrainerBase {
 public:
  /// Capacity of the round and apply-token queues to the reference process.
  /// Up to sync_lag + 1 rounds are in flight, so sync_lag must stay below it.
  static constexpr std::size_t kSyncQueueCapacity = 64;

  /// \param factory builds one model replica; called N+1 times (replicas +
  ///        evaluation copy) and synchronised to identical initial weights.
  /// \param make_optimizer builds each stage's local optimizer — any
  ///        optimizer works; the framework is decoupled from it (§3.1).
  AvgPipe(const nn::ModelFactory& factory,
          const runtime::OptimizerFactory& make_optimizer,
          AvgPipeConfig config);
  ~AvgPipe() override;

  AvgPipe(const AvgPipe&) = delete;
  AvgPipe& operator=(const AvgPipe&) = delete;

  /// Train one iteration: batch i goes to pipeline i. Returns the mean loss
  /// over the pipelines that completed their batch.
  ///
  /// Graceful degradation: a pipeline whose runtime fails mid-batch (or that
  /// the fault plan crashes at this step) is detached — its batch is lost,
  /// α rebalances to 1/N_alive, and the reference keeps averaging over the
  /// survivors. Dead pipelines' batches in `batches` are ignored. Throws
  /// only when no pipeline is left alive.
  double train_iteration(const std::vector<data::Batch>& batches) override;

  /// TrainerBase: N batches per iteration; `train_batch` is the N = 1 case.
  std::size_t batches_per_iteration() const override {
    return num_pipelines();
  }
  double train_batch(const data::Batch& batch) override {
    return train_iteration({batch});
  }
  std::string name() const override {
    return "AvgPipe[" + policy_->name() + "]";
  }

  std::size_t num_pipelines() const { return replicas_.size(); }
  double alpha() const { return alpha_; }
  const SyncPolicy& policy() const { return *policy_; }
  /// The resolved sync-transport compression (config or env).
  const SyncCompression& sync_compression() const { return compression_; }

  // -- elastic membership (fault tolerance) ----------------------------------

  /// Pipelines currently participating in the average.
  std::size_t alive_pipelines() const;
  bool pipeline_alive(std::size_t i) const;
  /// Liveness/heartbeat record of pipeline `i`.
  const fault::PipelineHealth& health(std::size_t i) const;

  /// Detach pipeline `i` from the average: its runtime is torn down (worker
  /// threads joined, like a process death), α rebalances to 1/N_alive and
  /// the reference model continues as the mean of the survivors. No-op if
  /// already detached.
  void detach_pipeline(std::size_t i, const std::string& reason);

  /// Bring a detached pipeline back: its replica re-initialises from the
  /// current reference weights (the paper's pull mechanism as recovery), a
  /// fresh runtime (fresh optimizer state) is built, and α rebalances back.
  /// No-op if alive.
  void rejoin_pipeline(std::size_t i);

  /// Copy the reference weights into the evaluation model and return it.
  /// In async mode this first synchronize()s so the evaluation weights
  /// include every completed iteration.
  nn::Sequential& eval_model() override;

  /// Current reference parameters (snapshot; synchronize()d first).
  ParamSet reference_snapshot();

  /// The policy's broadcast reconstruction of state (synchronize()d first):
  /// what a replica would restore from right now — for BMUF the Nesterov
  /// restart point W + η·Δ, for everything else the reference weights.
  ParamSet broadcast_snapshot();

  /// Snapshot of replica `i`'s live weights. Driver thread only, between
  /// iterations (stage threads are parked then); the replica must be alive.
  ParamSet replica_snapshot(std::size_t i) const;

  /// Drain all in-flight reference applies (no-op at lag 0, where the
  /// driver never runs ahead). Driver thread only.
  void synchronize();

  // -- durable checkpoint/restore (src/ckpt) ---------------------------------

  /// Register a named RNG stream (non-owning, must outlive the AvgPipe) to
  /// ride along in checkpoints: capture_state snapshots it, restore_state
  /// restores it by name. Typical use: the data-order stream, so a resumed
  /// run draws exactly the batches the uninterrupted run would have.
  void register_rng(const std::string& name, Rng* rng);

  /// Full durable state at the current round boundary. synchronize()s first
  /// — the apply drain doubles as the capture barrier (workers parked,
  /// driver owns every tensor) — then snapshots reference / policy state /
  /// broadcast under the reference mutex plus every pipeline's parameters
  /// and per-stage runtime state. Driver thread only, between iterations.
  ckpt::TrainState capture_state();

  /// Restore a state produced by `capture_state` on an identically
  /// configured system (same pipeline count and policy kind — checked).
  /// Pipelines marked dead in `state` are detached; live ones get weights,
  /// optimizer slots and predictor state back bit-exactly. Driver thread
  /// only, between iterations.
  void restore_state(const ckpt::TrainState& state);

  /// capture_state + durable commit through config.checkpoints (which must
  /// be set), recorded as a kCheckpoint span. The manifest is monotonic in
  /// step, so at least one train_iteration must separate two saves.
  ckpt::ManifestEntry save_checkpoint();

  /// Load the newest durable checkpoint that decodes cleanly — falling back
  /// over corrupted entries — and restore_state it (kRestore span carries
  /// the fallback count). `ok == false` means nothing was loadable; the live
  /// state is left untouched.
  ckpt::CheckpointDir::LoadResult restore_latest_checkpoint();

 private:
  /// One stage's co-partitioned sync state. Touched by that stage's thread
  /// during a batch and by the driver only between batches.
  struct StageSync {
    std::size_t first = 0;  ///< shard = parameters [first, first + size)
    std::vector<tensor::Variable> params;  ///< the stage's weights
    /// lag + 1 reused update shards; round t writes slot t mod (lag + 1).
    std::vector<ParamSet> ring;
    SyncCodec push_codec;  ///< this shard's push stream and EF residuals
  };
  struct Replica {
    nn::Sequential model;
    std::unique_ptr<runtime::PipelineRuntime> runtime;
    std::vector<StageSync> stages;
  };

  void reference_loop();
  /// Write the policy broadcast into the snapshot stage pulls read.
  void publish_broadcast()
      REQUIRES(reference_mutex_, reference_capability());
  /// Stage hook of pipeline `i` over its stage's shard: BSP/BMUF's reset
  /// before the batch (`begin`), else the local sync after the update.
  /// Runs concurrently with the reference process, so it must never hold
  /// the reference capability: it reads only the published snapshot.
  void stage_sync(std::size_t i, std::size_t stage,
                  trace::TraceBuffer* trace, bool begin)
      EXCLUDES(reference_capability());
  /// Build replica `i`'s runtime, wired to the stage hooks, and its
  /// per-stage sync state with fresh push codecs.
  void start_runtime(std::size_t i);
  /// The most recent reference snapshot published by the reference process.
  std::shared_ptr<const ParamSet> snapshot_handle();
  /// Drop a pull's snapshot handle under reference_mutex_, ordering the
  /// pull's reads before a later publish_broadcast rewrites it in place.
  void release_snapshot(std::shared_ptr<const ParamSet>& snap);
  /// Block until at most `limit` reference applies remain in flight.
  void wait_applies(std::size_t limit);
  void rebalance_alpha();
  /// Crash/rejoin marker plus an alive-pipelines counter sample.
  void record_membership_event(trace::EventKind kind, std::size_t pipeline);
  /// kSyncBytes/kSyncBytesRaw counter pair from one codec transmission.
  void record_sync_bytes(trace::TraceBuffer* buf, std::size_t pipeline,
                         std::size_t stage, const SyncCodec::Stats& stats);
  /// Apply the plan's crash_at_step / rejoin_at_step records due at
  /// `iteration_`.
  void apply_scheduled_faults();
  /// Bring pipeline `i` to the checkpointed per-pipeline state `p` (weights,
  /// optimizer slots, predictors, and — when `codec_match` — the push
  /// codecs' EF residuals); doubles as a rejoin when `i` is detached.
  void restore_pipeline(std::size_t i, const ckpt::PipelineState& p,
                        bool codec_match);
  /// Failure escalation: re-attach just-detached pipeline `i` with its
  /// durable state from the newest loadable checkpoint (kRestore span);
  /// falls back to the plain broadcast rejoin when none is loadable.
  /// Returns whether durable state was used.
  bool restore_pipeline_from_checkpoint(std::size_t i);

  AvgPipeConfig config_;
  std::unique_ptr<SyncPolicy> policy_;
  SyncCompression compression_;  ///< resolved config/env compression mode
  // Thread-placement plan shared by every replica runtime: replica i's K
  // stage threads occupy pin slots [i*K, (i+1)*K), then the reference
  // thread takes slot N*K — pinned only under AVGPIPE_PIN_THREADS.
  // stage_workers_ is each stage thread's share of the
  // global kernel pool (AVGPIPE_STAGE_THREADS, defaulting to a fair split
  // over all N*K concurrent stage threads).
  std::size_t stage_workers_ = 1;
  std::size_t pin_total_slots_ = 0;
  const fault::FaultPlan* faults_ = nullptr;
  double alpha_ = 0.5;
  long iteration_ = 0;  ///< driver step index (train_iteration count)
  /// Ring slots per stage: lag + 1, lag being sync_lag under async_sync.
  std::size_t ring_size_ = 1;
  /// Ring slot this iteration's stages write. Like alpha_, written by the
  /// driver before it submits and read by stage threads after their start
  /// recv, so the start channel orders the two.
  std::size_t ring_slot_ = 0;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<fault::PipelineHealth> health_;  ///< one per pipeline
  runtime::OptimizerFactory make_optimizer_;   ///< kept for rejoins
  nn::Sequential eval_model_;
  /// Named external RNG streams captured/restored with checkpoints.
  std::vector<std::pair<std::string, Rng*>> rngs_;

  // Tracing buffers: driver-thread events (membership, checkpoints, sync
  // lag) and reference-process spans; both created from config_.tracer.
  trace::TraceBuffer* driver_trace_ = nullptr;
  trace::TraceBuffer* reference_trace_ = nullptr;

  // Reference process: one message per iteration carries the whole round of
  // local updates (steps ❹–❺) — batching the round into a single message
  // keeps membership bookkeeping with the driver and lets rounds queue up
  // behind each other under sync_lag without an expected-count handshake.
  // A round's updates are handles onto the stage rings, not copies. After
  // every apply the reference thread publishes the broadcast into
  // latest_snapshot_, which stage pulls read through a shared handle.
  std::unique_ptr<ReferenceModel> reference_ PT_GUARDED_BY(reference_mutex_);
  /// Compressor of the broadcast stream. Reference-thread state: shares
  /// reference_'s serialisation (reference_mutex_ plus the apply drain).
  SyncCodec broadcast_codec_ GUARDED_BY(reference_mutex_);
  common::Mutex reference_mutex_;
  std::shared_ptr<ParamSet> latest_snapshot_ GUARDED_BY(reference_mutex_);
  /// The snapshot latest_snapshot_ replaced; the next publish reuses it.
  std::shared_ptr<ParamSet> spare_snapshot_ GUARDED_BY(reference_mutex_);
  Channel<std::vector<ParamSet>> update_queue_{kSyncQueueCapacity};
  Channel<int> applied_queue_{kSyncQueueCapacity};
  std::size_t outstanding_applies_ = 0;  ///< driver-side in-flight rounds
  std::thread reference_thread_;
};

}  // namespace avgpipe::core
