#include "breakdown.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <tuple>

namespace perfbench {

namespace {

using avgpipe::trace::CounterId;
using avgpipe::trace::EventKind;
using avgpipe::trace::TraceEvent;

// Row order is the attribution priority (see breakdown.hpp).
enum Row { kCompute, kCommWait, kBubble, kCheckpoint, kLocalSync, kApply, kRows };

struct Span {
  double begin, end;
  Row row;
};

/// Time each row covers on one stream's timeline within [t0, t1]; the rest
/// of the window is unattributed.
std::array<double, kRows> sweep(const std::vector<Span>& spans, double t0,
                                double t1, double* unattributed) {
  struct Edge {
    double t;
    Row row;
    int delta;
  };
  std::vector<Edge> edges;
  for (const auto& s : spans) {
    const double b = std::max(s.begin, t0), e = std::min(s.end, t1);
    if (e <= b) continue;
    edges.push_back({b, s.row, +1});
    edges.push_back({e, s.row, -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });
  std::array<int, kRows> active{};
  std::array<double, kRows> time{};
  double prev = t0;
  *unattributed = 0;
  for (const auto& e : edges) {
    const double seg = e.t - prev;
    if (seg > 0) {
      int row = 0;
      while (row < kRows && active[row] == 0) ++row;
      if (row < kRows) {
        time[row] += seg;
      } else {
        *unattributed += seg;
      }
    }
    prev = e.t;
    active[e.row] += e.delta;
  }
  *unattributed += t1 - prev;
  return time;
}

bool is_compute_span(EventKind k) {
  return k == EventKind::kForward || k == EventKind::kBackward ||
         k == EventKind::kUpdate || k == EventKind::kWeightPrediction;
}

}  // namespace

Breakdown attribute(const avgpipe::trace::TraceAnalysis& analysis, double t0,
                    double t1, std::size_t iterations, std::size_t pipelines,
                    std::size_t stages) {
  const auto& events = analysis.events();
  // Compute spans per (pipeline, stage), and per (pipeline, stage, kind,
  // micro-batch) to find the span that produced a received message.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<const TraceEvent*>>
      compute;
  std::map<std::tuple<std::uint32_t, std::uint32_t, EventKind, std::int32_t>,
           std::vector<const TraceEvent*>>
      producers;
  std::vector<Span> global;
  std::vector<std::vector<Span>> per_pipeline(pipelines);
  std::vector<double> stage_flops(stages, 0.0);
  for (const auto& ev : events) {
    if (is_compute_span(ev.kind)) {
      compute[{ev.pipeline, ev.stage}].push_back(&ev);
      producers[{ev.pipeline, ev.stage, ev.kind, ev.micro_batch}].push_back(&ev);
    } else if (ev.kind == EventKind::kCheckpoint) {
      global.push_back({ev.t_begin, ev.t_end, kCheckpoint});
    } else if (ev.kind == EventKind::kReferenceApply) {
      global.push_back({ev.t_begin, ev.t_end, kApply});
    } else if ((ev.kind == EventKind::kElasticPull ||
                ev.kind == EventKind::kPolicyBroadcast) &&
               ev.pipeline < pipelines) {
      per_pipeline[ev.pipeline].push_back({ev.t_begin, ev.t_end, kLocalSync});
    } else if (ev.kind == EventKind::kCounter && ev.counter == CounterId::kFlops &&
               ev.stage < stages && ev.t_begin >= t0 && ev.t_begin <= t1) {
      stage_flops[ev.stage] += ev.value;
    }
  }

  // The latest span in `list` (sorted by begin) that began by time t.
  const auto latest_before = [](const std::vector<const TraceEvent*>& list,
                                double t) -> const TraceEvent* {
    auto it = std::upper_bound(
        list.begin(), list.end(), t,
        [](double v, const TraceEvent* e) { return v < e->t_begin; });
    return it == list.begin() ? nullptr : *(it - 1);
  };

  std::vector<std::vector<Span>> streams(pipelines * stages);
  for (const auto& ev : events) {
    if (ev.pipeline >= pipelines || ev.stage >= stages) continue;
    auto& spans = streams[ev.pipeline * stages + ev.stage];
    if (is_compute_span(ev.kind)) {
      spans.push_back({ev.t_begin, ev.t_end, kCompute});
    } else if (ev.kind == EventKind::kWaitComm) {
      spans.push_back({ev.t_begin, ev.t_end, kCommWait});
    } else if (ev.kind == EventKind::kWaitBubble) {
      // The op this wait blocked is the stream's next compute span; its kind
      // says whether an activation (from stage s-1) or a gradient (from
      // stage s+1) was awaited.
      const auto& own = compute[{ev.pipeline, ev.stage}];
      auto next = std::lower_bound(
          own.begin(), own.end(), ev.t_end,
          [](const TraceEvent* e, double v) { return e->t_begin < v; });
      const TraceEvent* producer = nullptr;
      if (next != own.end()) {
        const EventKind kind = (*next)->kind;
        if (kind == EventKind::kForward && ev.stage > 0) {
          producer = latest_before(
              producers[{ev.pipeline, ev.stage - 1, kind, ev.micro_batch}],
              ev.t_end);
        } else if (kind == EventKind::kBackward && ev.stage + 1 < stages) {
          producer = latest_before(
              producers[{ev.pipeline, ev.stage + 1, kind, ev.micro_batch}],
              ev.t_end);
        }
      }
      const double split =
          producer == nullptr
              ? ev.t_end
              : std::clamp(producer->t_end, ev.t_begin, ev.t_end);
      spans.push_back({ev.t_begin, split, kBubble});
      spans.push_back({split, ev.t_end, kCommWait});
    }
  }

  Breakdown b;
  const double window = t1 - t0;
  const double n_streams = static_cast<double>(pipelines * stages);
  const double per_iter_ms = 1e3 / static_cast<double>(iterations);
  b.iter_ms = window * per_iter_ms;
  b.busy_frac.assign(stages, 0.0);
  b.bubble_frac.assign(stages, 0.0);
  b.gflops.assign(stages, 0.0);
  std::vector<double> stage_compute(stages, 0.0);
  std::array<double, kRows> total{};
  double unattributed = 0;
  for (std::size_t p = 0; p < pipelines; ++p) {
    for (std::size_t s = 0; s < stages; ++s) {
      std::vector<Span> spans = streams[p * stages + s];
      spans.insert(spans.end(), global.begin(), global.end());
      spans.insert(spans.end(), per_pipeline[p].begin(), per_pipeline[p].end());
      double rest = 0;
      const auto time = sweep(spans, t0, t1, &rest);
      for (int r = 0; r < kRows; ++r) total[r] += time[r];
      unattributed += rest;
      stage_compute[s] += time[kCompute];
      b.busy_frac[s] += time[kCompute] / window / static_cast<double>(pipelines);
      b.bubble_frac[s] += time[kBubble] / window / static_cast<double>(pipelines);
    }
  }
  for (std::size_t s = 0; s < stages; ++s) {
    b.gflops[s] = stage_compute[s] > 0 ? stage_flops[s] / stage_compute[s] * 1e-9 : 0;
  }
  const auto row = [&](double t) { return t / n_streams * per_iter_ms; };
  b.compute_ms = row(total[kCompute]);
  b.comm_wait_ms = row(total[kCommWait]);
  b.bubble_ms = row(total[kBubble]);
  b.checkpoint_ms = row(total[kCheckpoint]);
  b.local_sync_ms = row(total[kLocalSync]);
  b.reference_apply_ms = row(total[kApply]);
  b.unattributed_ms = row(unattributed);
  return b;
}

}  // namespace perfbench
