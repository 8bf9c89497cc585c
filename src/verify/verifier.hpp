#pragma once

/// \file verifier.hpp
/// Static schedule/protocol model checker for the pipeline runtime.
///
/// The threaded runtime (runtime/pipeline_runtime.cpp) is a fixed message-
/// passing protocol: per-stage workers executing schedule:: instruction
/// streams over bounded channels, coordinated by a driver through start/done
/// tokens and (optionally) the elastic fold it publishes. Whether that
/// protocol can deadlock — and how deep each bounded channel can actually
/// grow — depends only on `(kind, K, M, advance_num, capacities, sync
/// mode)`, never on tensor contents or timing. So it can be *proved* offline:
/// this module compiles every process's send/recv event automaton from the
/// schedule, then exhaustively explores the induced state space.
///
/// The state of the whole system is just the vector of per-process program
/// positions: channel occupancies are derivable (sends completed by the
/// producer minus recvs completed by the consumer), which keeps states tiny
/// (one byte per process) and the visited set a flat hash set. Exploration
/// is breadth-first — counterexamples come out shortest-first — with a
/// sleep-set partial-order reduction (Godefroid) that prunes commuting
/// interleavings of actions on different channels without losing reachable
/// states, so the reported peaks stay exact.
///
/// Checked properties:
///  - deadlock freedom: no reachable state where some process is incomplete
///    and nothing is enabled;
///  - the non-parking-send headroom contract: with the schedule-derived
///    capacity (run-ahead + 1 slack, see schedule::max_send_run_ahead) a
///    stage link never fills — one free slot in every reachable state means
///    no interleaving can park a send. A reachable full link is reported as
///    a kSendParked safety violation with a shortest filling trace — this
///    is what an under-provisioned capacity (e.g. --no-slack, capacity =
///    run-ahead) turns into, instead of a hang;
///  - exact peak per-link occupancy (cross-checked against
///    PipelineRuntime::link_capacity() - 1) and peak in-flight activation
///    counts (cross-checked against schedule::check_schedule's stash bounds
///    and the predictor's Eq. 8 activation-memory term).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "schedule/schedule.hpp"

namespace avgpipe::verify {

/// Whether elastic averaging is modeled alongside the pipeline
/// (core::AvgPipe): the driver, which is the reference process, folds round
/// b - `sync_lag` during batch b and stages wait for that publish before
/// their pull; lag 0 is synchronous sync (paper §3.2 ❷–❺).
enum class ElasticMode { kNone, kElastic };

const char* to_string(ElasticMode mode);

/// One protocol instance to verify. Mirrors the runtime's construction
/// parameters; defaults reproduce its derivations (advance_num 0 -> K-1,
/// link_capacity 0 -> run-ahead + 1).
struct ModelConfig {
  schedule::Kind kind = schedule::Kind::kOneFOneB;
  std::size_t num_stages = 2;      ///< K
  std::size_t micro_batches = 4;   ///< M per batch
  std::size_t num_batches = 1;
  std::size_t advance_num = 0;     ///< AFP advance; 0 derives K-1
  /// Stage-link capacity. 0 derives the runtime's bound (run-ahead + 1);
  /// any other value models a capacity the runtime never builds (it has no
  /// capacity knob), to explore the schedule under tighter or looser links.
  std::size_t link_capacity = 0;
  ElasticMode elastic = ElasticMode::kNone;
  std::size_t sync_lag = 0;        ///< kElastic only; 0 = sync
  /// Treat a reachable full stage link as a safety violation: the runtime's
  /// "+1 slack" contract keeps one slot of headroom so no send can ever
  /// park. When false, full links pass silently and only classical deadlock
  /// is reported.
  bool check_send_parking = true;
  /// Sleep-set partial-order reduction. Exact for every reported property;
  /// off is only useful for validating the reduction itself.
  bool partial_order_reduction = true;
  std::size_t max_states = 1u << 22;  ///< exploration budget
};

enum class Verdict {
  kOk,              ///< full space explored, no violation
  kDeadlock,        ///< reachable state with work pending and nothing enabled
  kSendParked,      ///< reachable full stage link (send-parking headroom lost)
  kInvalidSchedule, ///< schedule:: rejected the configuration
  kStateLimit,      ///< max_states exhausted before completion
};

const char* to_string(Verdict verdict);

/// One step of a counterexample: which process moved and what it did.
struct Step {
  std::string process;
  std::string action;
};

/// Occupancy result for one modeled channel.
struct ChannelReport {
  std::string name;
  std::size_t capacity = 0;
  std::size_t peak = 0;       ///< exact max occupancy over reachable states
  bool stage_link = false;    ///< an acts/grads payload link
};

struct Report {
  Verdict verdict = Verdict::kStateLimit;
  /// Human-readable account of the violation (empty for kOk).
  std::string diagnosis;
  /// Shortest event trace reaching the violating state (BFS order), ending
  /// with the blocked/deadlocked situation. Empty for kOk.
  std::vector<Step> counterexample;

  std::vector<ChannelReport> channels;
  /// Exact peak occupancy over the stage links only (the acts/grads
  /// channels PipelineRuntime::link_capacity() provisions). Equals
  /// link_capacity - 1 when the schedule-derived capacity is used.
  std::size_t peak_link_occupancy = 0;
  /// Per stage: exact peak count of forwarded-but-not-backwarded
  /// micro-batches (the activation stash; matches
  /// schedule::check_schedule().max_in_flight).
  std::vector<std::size_t> peak_stash;
  /// Exact peak, over reachable states, of total in-flight activations:
  /// every stage's stash plus every activation sitting in a stage link.
  std::size_t peak_in_flight = 0;

  /// The stage-link capacity the model ran with and the schedule-derived
  /// value (they differ only under an explicit link_capacity override).
  std::size_t link_capacity_used = 0;
  std::size_t derived_link_capacity = 0;

  std::size_t states = 0;       ///< distinct states visited
  std::size_t transitions = 0;  ///< transitions executed
  std::size_t sleep_skips = 0;  ///< transitions pruned by the reduction
  bool complete = false;        ///< whole reachable space covered

  bool ok() const { return verdict == Verdict::kOk; }
};

/// Model-check one configuration. Never hangs: the result is a verdict, a
/// (possibly empty) counterexample and exact occupancy peaks.
Report verify(const ModelConfig& config);

/// Multi-line human-readable rendering (the CLI's non-JSON output).
std::string format_report(const ModelConfig& config, const Report& report);

}  // namespace avgpipe::verify
