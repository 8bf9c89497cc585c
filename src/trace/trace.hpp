#pragma once

/// \file trace.hpp
/// Unified structured execution tracing for both execution engines.
///
/// Every claim the paper makes — AFP overlaps communication with computation
/// (§4), parallel pipelines share GPUs without destroying utilization (§3.2),
/// the predictor's Equations (1)–(8) match observed time/memory (§5) — is a
/// statement about *when* events happen. This module is the first-class event
/// record both executors emit into: the discrete-event simulator records
/// spans with simulated timestamps, the threaded runtime and the elastic
/// driver (also the reference process) record wall-clock spans and
/// counters. Downstream, the
/// same trace feeds the Chrome/Perfetto exporter (chrome_trace.hpp), the
/// per-stage metrics tables and bubble/overlap analysis (analysis.hpp), and
/// the schedule-conformance tests.
///
/// Concurrency model: emitters are single-owner. Each emitting thread asks
/// the `Tracer` registry for its own `TraceBuffer` once and appends to it;
/// a buffer's tiny mutex is therefore uncontended on the hot path (it only
/// synchronises against a collector), which keeps `record` lock-cheap. The
/// registry mutex is touched only at buffer creation and collection.

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/annotations.hpp"
#include "common/units.hpp"

namespace avgpipe::trace {

/// What a span (or counter sample) represents.
enum class EventKind : std::uint8_t {
  // Compute spans (mirror schedule::OpKind).
  kForward = 0,
  kBackward,
  kUpdate,
  // Communication spans, attributed to the *receiving* stage (the stage
  // whose dependency the payload satisfies — the stage a stall would hit).
  kCommActivation,
  kCommGradient,
  kCommAllReduce,
  // Stall spans: an instruction stream sat idle waiting for a dependency.
  // kWaitComm is the part attributable to an in-flight transfer, kWaitBubble
  // the part waiting on upstream/downstream compute (the pipeline bubble).
  kWaitComm,
  kWaitBubble,
  // Elastic-averaging spans (paper §3.2 steps ❷–❺).
  kElasticPull,
  kReferenceApply,
  // Counter sample: `value` holds the reading, `counter` names the series.
  kCounter,
  // Fault-injection & recovery events (src/fault). Straggler spans cover the
  // injected extra delay; drop markers are instantaneous (value = attempt);
  // link-degraded spans cover the degradation window; crash/rejoin mark a
  // pipeline detaching from and re-entering the elastic group (the rejoin
  // span covers the re-sync from the reference model).
  kFaultStraggler,
  kFaultDrop,
  kLinkDegraded,
  kPipelineCrash,
  kPipelineRejoin,
  // Sync-policy spans (src/core/sync_policy.hpp). kPolicyBroadcast covers a
  // stage resetting its shard to the reference broadcast at round start
  // (BSP/BMUF); kWeightPrediction covers a stage applying XPipe-style
  // predicted weights at batch dispatch. kElasticPull doubles as the generic
  // local-sync span for every policy (a stage's pull/push step ❷–❸ on its
  // shard).
  kPolicyBroadcast,
  kWeightPrediction,
  // Durability spans (src/ckpt). kCheckpoint covers the driver's stall for
  // a save: the round-boundary capture, its hand-off to the checkpoint
  // writer, and any wait for the previous save; kRestore covers loading a
  // durable checkpoint back into the live system (value = manifest entries
  // skipped before one decoded cleanly); kCheckpointCommit covers the
  // writer thread's crash-consistent commit of one save (value = bytes on
  // disk).
  kCheckpoint,
  kRestore,
  kCheckpointCommit,
};

/// Named counter series for EventKind::kCounter events.
enum class CounterId : std::uint8_t {
  kNone = 0,
  kUtilization,  ///< GPU utilization φ(t); span = constant segment
  kQueueDepth,   ///< channel occupancy observed at a recv
  kAlivePipelines,  ///< pipelines attached to the elastic group
  kRecvRetry,    ///< bounded-pop timeouts survived before a message arrived
  kSyncLag,      ///< reference applies in flight behind training (async)
  // Perf-counter layer (the throughput campaign's measurement side).
  kFlops,        ///< FLOPs issued by a stage during one instruction
  kParkCount,    ///< condvar parks on the stage's inbound links, per batch
  kSpinCount,    ///< spin-window entries on the stage's inbound links
  kSyncBatch,    ///< rounds folded per batched reference apply
  kSyncBytes,    ///< sync payload bytes actually moved (post-codec)
  kSyncBytesRaw, ///< sync payload bytes as raw f64 (pre-codec)
};

const char* to_string(EventKind kind);
const char* to_string(CounterId id);
bool is_compute(EventKind kind);
bool is_comm(EventKind kind);
bool is_wait(EventKind kind);
bool is_fault(EventKind kind);

/// One structured event. Spans have t_begin <= t_end; instantaneous counter
/// samples use t_begin == t_end. Simulated and wall-clock traces share the
/// schema; only the clock differs.
struct TraceEvent {
  EventKind kind = EventKind::kCounter;
  CounterId counter = CounterId::kNone;
  std::uint32_t pipeline = 0;
  std::uint32_t stage = 0;
  std::int32_t batch = -1;        ///< -1: not batch-scoped
  std::int32_t micro_batch = -1;  ///< -1: not micro-batch-scoped
  Seconds t_begin = 0;
  Seconds t_end = 0;
  Bytes bytes = 0;   ///< payload size for comm spans
  double value = 0;  ///< counter reading for kCounter
};

bool operator==(const TraceEvent& a, const TraceEvent& b);
inline bool operator!=(const TraceEvent& a, const TraceEvent& b) {
  return !(a == b);
}

/// Append-only event sink owned by one emitting thread. Thread-safe against
/// a concurrent collector; two threads must not share one buffer.
class TraceBuffer {
 public:
  void record(const TraceEvent& ev) {
    common::MutexLock lock(mutex_);
    events_.push_back(ev);
  }

  std::size_t size() const {
    common::MutexLock lock(mutex_);
    return events_.size();
  }

 private:
  friend class Tracer;
  mutable common::Mutex mutex_;
  std::vector<TraceEvent> events_ GUARDED_BY(mutex_);
};

/// Registry of per-thread buffers plus the trace clock.
///
/// Usage: each emitting thread calls `create_buffer()` once and records into
/// the returned buffer; `collect()` merges every buffer into one list sorted
/// by (t_begin, creation order, insertion order) — a stable order, so two
/// identical executions yield identical collected traces.
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Register a new buffer. The Tracer owns it; the pointer stays valid for
  /// the Tracer's lifetime (clear() empties buffers but does not free them).
  TraceBuffer* create_buffer();

  /// Wall-clock seconds since this Tracer was constructed. The common time
  /// base for every wall-clock emitter registered here.
  Seconds wall_now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// Merge all buffers, sorted by t_begin (stable across equal timestamps).
  /// Safe to call while emitters are still recording: it observes a
  /// consistent prefix of each buffer.
  std::vector<TraceEvent> collect() const;

  /// Drop all recorded events (buffers stay registered).
  void clear();

  std::size_t num_buffers() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable common::Mutex mutex_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_ GUARDED_BY(mutex_);
};

/// RAII wall-clock span: stamps t_begin at construction and records the
/// event (with t_end stamped) at destruction. Supports nesting freely —
/// each span is an independent event.
class ScopedSpan {
 public:
  ScopedSpan(const Tracer& tracer, TraceBuffer* buffer, TraceEvent proto)
      : tracer_(tracer), buffer_(buffer), event_(proto) {
    event_.t_begin = tracer_.wall_now();
  }
  ~ScopedSpan() {
    if (buffer_ == nullptr) return;
    event_.t_end = tracer_.wall_now();
    buffer_->record(event_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const Tracer& tracer_;
  TraceBuffer* buffer_;
  TraceEvent event_;
};

}  // namespace avgpipe::trace
