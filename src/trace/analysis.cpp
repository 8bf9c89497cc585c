#include "trace/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace avgpipe::trace {

namespace {

schedule::OpKind op_kind_of(EventKind kind) {
  switch (kind) {
    case EventKind::kForward: return schedule::OpKind::kForward;
    case EventKind::kBackward: return schedule::OpKind::kBackward;
    default: return schedule::OpKind::kUpdate;
  }
}

std::string format_pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace

TraceAnalysis::TraceAnalysis(std::vector<TraceEvent> events)
    : events_(std::move(events)) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.t_begin < b.t_begin;
                   });
  if (events_.empty()) return;
  span_begin_ = events_.front().t_begin;
  span_end_ = events_.front().t_end;
  for (const auto& ev : events_) {
    num_stages_ = std::max<std::size_t>(num_stages_, ev.stage + 1);
    num_pipelines_ = std::max<std::size_t>(num_pipelines_, ev.pipeline + 1);
    span_begin_ = std::min(span_begin_, ev.t_begin);
    span_end_ = std::max(span_end_, ev.t_end);
  }
}

std::vector<TraceAnalysis::Interval> TraceAnalysis::merged_spans(
    std::size_t stage, bool (*pred)(EventKind)) const {
  std::vector<Interval> spans;
  for (const auto& ev : events_) {
    if (ev.stage != stage || !pred(ev.kind)) continue;
    if (ev.t_end > ev.t_begin) spans.push_back({ev.t_begin, ev.t_end});
  }
  // events_ is sorted by t_begin, so a single merge pass suffices.
  std::vector<Interval> merged;
  for (const auto& s : spans) {
    if (!merged.empty() && s.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, s.end);
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

Seconds TraceAnalysis::busy_time(std::size_t stage) const {
  Seconds total = 0;
  for (const auto& iv : merged_spans(stage, is_compute)) {
    total += iv.end - iv.begin;
  }
  return total;
}

Seconds TraceAnalysis::comm_time(std::size_t stage) const {
  Seconds total = 0;
  for (const auto& iv : merged_spans(stage, is_comm)) {
    total += iv.end - iv.begin;
  }
  return total;
}

Seconds TraceAnalysis::comm_wait_time(std::size_t stage) const {
  Seconds total = 0;
  for (const auto& ev : events_) {
    if (ev.stage == stage && ev.kind == EventKind::kWaitComm) {
      total += ev.t_end - ev.t_begin;
    }
  }
  return total;
}

Seconds TraceAnalysis::bubble_time(std::size_t stage) const {
  Seconds total = 0;
  for (const auto& ev : events_) {
    if (ev.stage == stage && ev.kind == EventKind::kWaitBubble) {
      total += ev.t_end - ev.t_begin;
    }
  }
  return total;
}

double TraceAnalysis::idle_fraction(std::size_t stage) const {
  const Seconds span = span_end_ - span_begin_;
  if (span <= 0) return 0;
  return 1.0 - busy_time(stage) / span;
}

Seconds TraceAnalysis::overlapped_comm_time(std::size_t stage) const {
  const auto compute = merged_spans(stage, is_compute);
  Seconds overlap = 0;
  // Both lists are time-sorted; walk them together.
  std::size_t j = 0;
  for (const auto& ev : events_) {
    if (ev.stage != stage || !is_comm(ev.kind)) continue;
    while (j < compute.size() && compute[j].end <= ev.t_begin) ++j;
    for (std::size_t i = j; i < compute.size(); ++i) {
      if (compute[i].begin >= ev.t_end) break;
      overlap += std::max<Seconds>(
          0, std::min(ev.t_end, compute[i].end) -
                 std::max(ev.t_begin, compute[i].begin));
    }
  }
  return overlap;
}

double TraceAnalysis::comm_overlap_fraction(std::size_t stage) const {
  Seconds comm = 0;
  for (const auto& ev : events_) {
    if (ev.stage == stage && is_comm(ev.kind)) comm += ev.t_end - ev.t_begin;
  }
  if (comm <= 0) return 0;
  return overlapped_comm_time(stage) / comm;
}

double TraceAnalysis::comm_overlap_fraction() const {
  Seconds comm = 0, overlap = 0;
  for (std::size_t k = 0; k < num_stages_; ++k) {
    for (const auto& ev : events_) {
      if (ev.stage == k && is_comm(ev.kind)) comm += ev.t_end - ev.t_begin;
    }
    overlap += overlapped_comm_time(k);
  }
  if (comm <= 0) return 0;
  return overlap / comm;
}

StepFunction TraceAnalysis::utilization(std::size_t stage) const {
  StepFunction phi;
  for (const auto& ev : events_) {
    if (ev.kind == EventKind::kCounter &&
        ev.counter == CounterId::kUtilization && ev.stage == stage) {
      phi.append(ev.t_begin, ev.t_end, ev.value);
    }
  }
  return phi;
}

double TraceAnalysis::mean_utilization() const {
  if (num_stages_ == 0 || span_end_ <= 0) return 0;
  double util_sum = 0;
  for (std::size_t k = 0; k < num_stages_; ++k) {
    util_sum += utilization(k).integral() / span_end_;
  }
  return util_sum / static_cast<double>(num_stages_);
}

double TraceAnalysis::peak_utilization() const {
  double peak = 0;
  for (const auto& ev : events_) {
    if (ev.kind == EventKind::kCounter &&
        ev.counter == CounterId::kUtilization) {
      peak = std::max(peak, ev.value);
    }
  }
  return peak;
}

double TraceAnalysis::counter_quantile(std::size_t stage, CounterId id,
                                       double q) const {
  std::vector<double> values;
  for (const auto& ev : events_) {
    if (ev.kind == EventKind::kCounter && ev.counter == id &&
        ev.stage == stage) {
      values.push_back(ev.value);
    }
  }
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double TraceAnalysis::counter_sum(std::size_t stage, CounterId id) const {
  double total = 0;
  for (const auto& ev : events_) {
    if (ev.kind == EventKind::kCounter && ev.counter == id &&
        ev.stage == stage) {
      total += ev.value;
    }
  }
  return total;
}

std::size_t TraceAnalysis::counter_count(std::size_t stage,
                                         CounterId id) const {
  std::size_t n = 0;
  for (const auto& ev : events_) {
    if (ev.kind == EventKind::kCounter && ev.counter == id &&
        ev.stage == stage) {
      ++n;
    }
  }
  return n;
}

double TraceAnalysis::mean_sync_batch() const {
  double total = 0;
  std::size_t n = 0;
  for (const auto& ev : events_) {
    if (ev.kind == EventKind::kCounter &&
        ev.counter == CounterId::kSyncBatch) {
      total += ev.value;
      ++n;
    }
  }
  return n == 0 ? 0 : total / static_cast<double>(n);
}

namespace {

std::uint64_t counter_total(const std::vector<TraceEvent>& events,
                            CounterId id) {
  double total = 0;
  for (const auto& ev : events) {
    if (ev.kind == EventKind::kCounter && ev.counter == id) total += ev.value;
  }
  return static_cast<std::uint64_t>(total);
}

}  // namespace

std::uint64_t TraceAnalysis::sync_bytes() const {
  return counter_total(events_, CounterId::kSyncBytes);
}

std::uint64_t TraceAnalysis::sync_bytes_raw() const {
  return counter_total(events_, CounterId::kSyncBytesRaw);
}

double TraceAnalysis::compression_ratio() const {
  const std::uint64_t raw = sync_bytes_raw();
  const std::uint64_t wire = sync_bytes();
  if (raw == 0 || wire == 0) return 1.0;
  return static_cast<double>(raw) / static_cast<double>(wire);
}

std::vector<schedule::Instr> TraceAnalysis::stage_ops(
    std::size_t pipeline, std::size_t stage) const {
  std::vector<schedule::Instr> ops;
  for (const auto& ev : events_) {
    if (ev.pipeline == pipeline && ev.stage == stage && is_compute(ev.kind)) {
      ops.push_back({op_kind_of(ev.kind), ev.batch, ev.micro_batch});
    }
  }
  return ops;
}

std::vector<TraceEvent> TraceAnalysis::fault_events() const {
  std::vector<TraceEvent> out;
  for (const auto& ev : events_) {
    if (is_fault(ev.kind)) out.push_back(ev);
  }
  return out;
}

Seconds TraceAnalysis::straggler_delay(std::size_t stage) const {
  Seconds total = 0;
  for (const auto& ev : events_) {
    if (ev.stage == stage && ev.kind == EventKind::kFaultStraggler) {
      total += ev.t_end - ev.t_begin;
    }
  }
  return total;
}

std::vector<TraceAnalysis::Recovery> TraceAnalysis::recoveries() const {
  std::vector<Recovery> episodes;
  for (const auto& ev : events_) {
    if (ev.kind == EventKind::kPipelineCrash) {
      Recovery r;
      r.pipeline = ev.pipeline;
      r.t_crash = ev.t_begin;
      r.latency = span_end_ - ev.t_begin;
      episodes.push_back(r);
    } else if (ev.kind == EventKind::kPipelineRejoin) {
      // Close the most recent open episode of this pipeline (events_ is
      // time-sorted, so the match is the last unrejoined crash).
      for (auto it = episodes.rbegin(); it != episodes.rend(); ++it) {
        if (it->pipeline == ev.pipeline && !it->rejoined) {
          it->rejoined = true;
          it->t_rejoin = ev.t_end;
          it->latency = ev.t_end - it->t_crash;
          break;
        }
      }
    }
  }
  return episodes;
}

std::vector<TraceEvent> TraceAnalysis::checkpoint_events() const {
  std::vector<TraceEvent> out;
  for (const auto& ev : events_) {
    if (ev.kind == EventKind::kCheckpoint) out.push_back(ev);
  }
  return out;
}

std::vector<TraceEvent> TraceAnalysis::restore_events() const {
  std::vector<TraceEvent> out;
  for (const auto& ev : events_) {
    if (ev.kind == EventKind::kRestore) out.push_back(ev);
  }
  return out;
}

Seconds TraceAnalysis::checkpoint_time() const {
  Seconds total = 0;
  for (const auto& ev : events_) {
    if (ev.kind == EventKind::kCheckpoint) total += ev.t_end - ev.t_begin;
  }
  return total;
}

Seconds TraceAnalysis::checkpoint_commit_time() const {
  Seconds total = 0;
  for (const auto& ev : events_) {
    if (ev.kind == EventKind::kCheckpointCommit) total += ev.t_end - ev.t_begin;
  }
  return total;
}

std::uint64_t TraceAnalysis::checkpoint_bytes() const {
  std::uint64_t total = 0;
  for (const auto& ev : events_) {
    if (ev.kind == EventKind::kCheckpointCommit) total += ev.bytes;
  }
  return total;
}

Table TraceAnalysis::metrics_table() const {
  Table table({"stage", "busy s", "idle", "comm s", "overlap", "bubble s",
               "comm wait s", "mean util", "peak util", "qdepth p50",
               "qdepth p95"});
  for (std::size_t k = 0; k < num_stages_; ++k) {
    const StepFunction phi = utilization(k);
    const double mean_phi =
        span_end_ > 0 ? phi.integral() / span_end_ : 0.0;
    table.row()
        .cell_int(static_cast<long long>(k))
        .cell(busy_time(k), 4)
        .cell(format_pct(idle_fraction(k)))
        .cell(comm_time(k), 4)
        .cell(format_pct(comm_overlap_fraction(k)))
        .cell(bubble_time(k), 4)
        .cell(comm_wait_time(k), 4)
        .cell(format_pct(mean_phi))
        .cell(format_pct(phi.max_value()))
        .cell(counter_quantile(k, CounterId::kQueueDepth, 0.5), 1)
        .cell(counter_quantile(k, CounterId::kQueueDepth, 0.95), 1);
  }
  return table;
}

}  // namespace avgpipe::trace
