#pragma once

/// \file happens_before.hpp
/// Trace happens-before checker: replays a recorded execution trace (either
/// engine) against the pipeline protocol's causal order.
///
/// The verify:: model checker proves properties of the *protocol*; this
/// checker validates that a *recorded run* actually followed it. Every
/// cross-stage message induces a happens-before edge — F(k, b, mb) before
/// F(k+1, b, mb), B(k+1, b, mb) before B(k, b, mb), and each stage's j-th
/// Update before that stage's j-th ElasticPull (paper §3.2: a stage pulls
/// its shard of the reference only after committing its batch). The checker
/// assigns per-pipeline vector clocks over (pipeline, stage) processes,
/// joins them along the message edges, and flags:
///   - micro-batch reordering within a stage (per batch, forwards and
///     backwards must each run in micro-batch order, backwards after their
///     forwards);
///   - FIFO violations per link (the order messages were produced on stage
///     k must be the order stage k+1 consumed them);
///   - timestamp/causality inversions: an event that begins before a
///     happens-before predecessor allows;
///   - sync-lag overruns: the kSyncLag counter exceeding the configured
///     bound (async elastic averaging's staleness window).
///
/// Batch tags need not be globally unique: the threaded runtime numbers
/// batches per train_batch call, so every flushed iteration reuses tag 0.
/// A stage's optimizer update for a tag closes that tag's scope on the
/// stage, and later spans reusing it are checked as a fresh iteration.
///
/// Clock-strictness caveat: simulated traces carry virtual timestamps that
/// ARE the causal order, so a receive must begin at or after the sender's
/// span *end* (strict mode). Wall-clock traces from the threaded runtime
/// stamp a span's end after its send completes, so a downstream span can
/// legitimately begin before the upstream span closes — only
/// receiver.t_begin >= sender.t_begin is guaranteed (weak mode, the
/// default).

#include <cstddef>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace avgpipe::trace {

struct HbOptions {
  /// Strict edges (receiver.t_begin >= sender.t_end): simulated traces
  /// only. Weak edges (receiver.t_begin >= sender.t_begin): wall-clock.
  bool strict = false;
  /// Timestamp slack in seconds for the causality comparisons.
  double epsilon = 1e-12;
  /// Maximum admissible kSyncLag counter value; negative disables the
  /// check (traces without elastic averaging).
  long sync_lag = -1;
  /// Stop collecting after this many violations (the verdict is already
  /// decided; keeps reports readable).
  std::size_t max_violations = 16;
};

struct HbViolation {
  std::string what;
};

struct HbReport {
  bool ok = true;
  std::vector<HbViolation> violations;
  std::size_t violations_total = 0;  ///< including ones past max_violations
  std::size_t events_checked = 0;    ///< protocol events examined
  std::size_t processes = 0;         ///< vector-clock components
  std::size_t edges = 0;             ///< happens-before edges validated
  std::size_t pipelines = 0;
  double max_sync_lag = 0;           ///< highest kSyncLag sample seen

  std::string summary() const;
};

/// Check one collected trace (Tracer::collect() order or a parsed Chrome
/// trace — both are sorted by t_begin).
HbReport check_happens_before(const std::vector<TraceEvent>& events,
                              const HbOptions& options = {});

}  // namespace avgpipe::trace
