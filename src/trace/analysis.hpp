#pragma once

/// \file analysis.hpp
/// Derived metrics over a collected trace.
///
/// `TraceAnalysis` turns the flat span list into the quantities the paper
/// argues about: per-stage busy/idle time, bubble time (stream waits on
/// upstream/downstream compute), the communication-overlap fraction (how
/// much of the inbound communication ran while the stage was computing —
/// the §4 AFP claim), utilization curves rebuilt from φ(t) counter samples,
/// and queue-depth/staleness percentiles. The figure benches consume this
/// instead of private simulator state, and the schedule-conformance tests
/// replay `stage_ops` against the schedule contract.

#include <vector>

#include "common/step_function.hpp"
#include "common/table.hpp"
#include "schedule/schedule.hpp"
#include "trace/trace.hpp"

namespace avgpipe::trace {

class TraceAnalysis {
 public:
  TraceAnalysis() = default;
  /// Takes ownership of the events; re-sorts them by t_begin (stable) so the
  /// analysis is independent of collection order.
  explicit TraceAnalysis(std::vector<TraceEvent> events);

  const std::vector<TraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// Stages/pipelines observed in the trace (max index + 1).
  std::size_t num_stages() const { return num_stages_; }
  std::size_t num_pipelines() const { return num_pipelines_; }

  Seconds span_begin() const { return span_begin_; }
  /// Latest event end — the makespan for a simulator trace.
  Seconds span_end() const { return span_end_; }

  /// Wall/virtual time stage `stage` had >= 1 compute span active (union
  /// over this GPU's pipelines).
  Seconds busy_time(std::size_t stage) const;
  /// Union of communication spans whose receiver is `stage`.
  Seconds comm_time(std::size_t stage) const;
  /// Total stall time of the stage's streams attributed to in-flight
  /// transfers (kWaitComm) resp. pipeline bubbles (kWaitBubble).
  Seconds comm_wait_time(std::size_t stage) const;
  Seconds bubble_time(std::size_t stage) const;
  /// 1 - busy / (span_end - span_begin).
  double idle_fraction(std::size_t stage) const;

  /// Fraction of stage-inbound communication time that overlapped with
  /// compute on that stage. 1F1B stalls make this low; AFP's advance
  /// forwards raise it (paper §4).
  double comm_overlap_fraction(std::size_t stage) const;
  /// Aggregate over all stages: total overlapped comm / total comm.
  double comm_overlap_fraction() const;

  /// φ(t) for stage `stage`, rebuilt from kUtilization counter segments.
  StepFunction utilization(std::size_t stage) const;
  /// Mean over stages of ∫φ / makespan — the simulator's mean_utilization.
  double mean_utilization() const;
  /// Max φ over all stages — the simulator's peak_utilization.
  double peak_utilization() const;

  /// Quantile (linear interpolation) of a counter series on a stage; 0 when
  /// the series has no samples.
  double counter_quantile(std::size_t stage, CounterId id, double q) const;

  // -- perf-counter layer (throughput campaign) ------------------------------

  /// Sum / sample count of a counter series on a stage (all pipelines).
  double counter_sum(std::size_t stage, CounterId id) const;
  std::size_t counter_count(std::size_t stage, CounterId id) const;

  /// Mean rounds folded per batched reference apply (kSyncBatch samples,
  /// stage-agnostic — the reference process is not a stage). 0 when the
  /// series has no samples; 1.0 means batching never coalesced.
  double mean_sync_batch() const;

  /// Bytes-moved reduction of the sync transport: Σ kSyncBytesRaw over
  /// Σ kSyncBytes across all events (stage-agnostic, like mean_sync_batch).
  /// 1.0 when nothing was sampled or the codec is off (raw == wire).
  double compression_ratio() const;

  /// Σ kSyncBytes / Σ kSyncBytesRaw over all events (wire and raw totals).
  std::uint64_t sync_bytes() const;
  std::uint64_t sync_bytes_raw() const;

  /// The ordered compute instructions (forward/backward/update) one
  /// (pipeline, stage) stream executed, replayed from its spans — the
  /// sequence the conformance tests hold against schedule::Schedule.
  std::vector<schedule::Instr> stage_ops(std::size_t pipeline,
                                         std::size_t stage) const;

  /// Per-stage metrics table: utilization, idle %, comm overlap, bubble,
  /// queue-depth percentiles.
  Table metrics_table() const;

  // -- fault & recovery metrics (src/fault) ---------------------------------

  /// All fault-injection/recovery events (is_fault), in time order.
  std::vector<TraceEvent> fault_events() const;

  /// Total injected straggler delay attributed to `stage` (union-free sum of
  /// kFaultStraggler spans — the straggler-induced bubble the elastic design
  /// must absorb).
  Seconds straggler_delay(std::size_t stage) const;

  /// One crash→rejoin episode of a pipeline. `latency` is the time from the
  /// crash event to the end of the rejoin span (re-sync from the reference
  /// model included); a crash with no rejoin has rejoined == false and
  /// latency measured to span_end().
  struct Recovery {
    std::uint32_t pipeline = 0;
    Seconds t_crash = 0;
    Seconds t_rejoin = 0;
    Seconds latency = 0;
    bool rejoined = false;
  };
  /// Crash/rejoin episodes reconstructed from kPipelineCrash/kPipelineRejoin
  /// events, in crash order.
  std::vector<Recovery> recoveries() const;

  // -- durability metrics (src/ckpt) ----------------------------------------

  /// kCheckpoint spans (the driver's stall per save) in time order.
  std::vector<TraceEvent> checkpoint_events() const;
  /// kRestore spans in time order (value = manifest fallbacks taken).
  std::vector<TraceEvent> restore_events() const;
  /// Total time the driver stalled for checkpoints (capture and hand-off) —
  /// the overhead side of the recovery-latency trade the soak bench reports.
  Seconds checkpoint_time() const;
  /// Total time the checkpoint writer spent committing saves, off the
  /// driver's path.
  Seconds checkpoint_commit_time() const;
  /// Bytes committed durably across all kCheckpointCommit spans.
  std::uint64_t checkpoint_bytes() const;

 private:
  struct Interval {
    Seconds begin;
    Seconds end;
  };
  /// Sorted, disjoint union of the matching spans.
  std::vector<Interval> merged_spans(std::size_t stage,
                                     bool (*pred)(EventKind)) const;
  Seconds overlapped_comm_time(std::size_t stage) const;

  std::vector<TraceEvent> events_;
  std::size_t num_stages_ = 0;
  std::size_t num_pipelines_ = 0;
  Seconds span_begin_ = 0;
  Seconds span_end_ = 0;
};

}  // namespace avgpipe::trace
