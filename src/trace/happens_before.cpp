#include "trace/happens_before.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace avgpipe::trace {

namespace {

/// (pipeline, stage, scope, batch, micro_batch) -> lookup key. `scope`
/// disambiguates reused batch tags: the threaded runtime numbers batches per
/// train_batch call, so every flushed iteration replays tag 0 — a stage's
/// optimizer update for a tag closes that tag's scope there, and the next
/// span reusing it belongs to a fresh scope. FNV-style mixing rather than
/// bit-packing: crash epochs widen scope values past what fixed fields hold.
std::uint64_t mb_key(std::uint32_t pipeline, std::uint32_t stage,
                     std::uint32_t scope, int batch, int micro_batch) {
  std::uint64_t k = 0xCBF29CE484222325ull;
  for (const std::uint32_t field :
       {pipeline, stage, scope, static_cast<std::uint32_t>(batch),
        static_cast<std::uint32_t>(micro_batch)}) {
    k = (k ^ field) * 0x100000001B3ull;
  }
  return k;
}

const char* kind_tag(EventKind kind) {
  switch (kind) {
    case EventKind::kForward: return "F";
    case EventKind::kBackward: return "B";
    case EventKind::kUpdate: return "U";
    case EventKind::kElasticPull: return "pull";
    default: return to_string(kind);
  }
}

std::string describe(const TraceEvent& e) {
  std::ostringstream os;
  os << kind_tag(e.kind) << " p" << e.pipeline << "/s" << e.stage;
  if (e.batch >= 0) os << " b" << e.batch << ".m" << e.micro_batch;
  os << " @[" << e.t_begin << ", " << e.t_end << "]";
  return os.str();
}

std::string format_clock(const std::vector<std::uint32_t>& vc) {
  std::ostringstream os;
  os << '<';
  for (std::size_t i = 0; i < vc.size(); ++i) {
    if (i) os << ',';
    os << vc[i];
  }
  os << '>';
  return os.str();
}

}  // namespace

std::string HbReport::summary() const {
  std::ostringstream os;
  os << (ok ? "OK" : "VIOLATIONS") << ": " << events_checked
     << " events over " << processes << " processes (" << pipelines
     << " pipelines), " << edges << " happens-before edges";
  if (max_sync_lag > 0) os << ", max sync lag " << max_sync_lag;
  if (!ok) os << ", " << violations_total << " violations";
  return os.str();
}

HbReport check_happens_before(const std::vector<TraceEvent>& events,
                              const HbOptions& options) {
  HbReport report;
  const double eps = options.epsilon;

  auto violate = [&](const std::string& what) {
    ++report.violations_total;
    if (report.violations.size() < options.max_violations) {
      report.violations.push_back({what});
    }
  };

  // ---- partition the trace into protocol events and processes ------------
  // A "process" is one vector-clock component: a (pipeline, stage) worker,
  // or that stage's elastic-pull context.
  std::vector<std::size_t> idx;  // indices of protocol events, trace order
  std::unordered_map<std::uint64_t, std::size_t> proc_of;  // key -> proc id
  std::unordered_set<std::uint32_t> pipelines;
  std::vector<std::string> proc_names;

  auto proc_key = [](std::uint32_t pipeline, std::uint32_t stage, bool pull) {
    return (static_cast<std::uint64_t>(pull) << 63) |
           (static_cast<std::uint64_t>(pipeline) << 32) | stage;
  };
  auto intern_proc = [&](std::uint32_t pipeline, std::uint32_t stage,
                         bool pull) {
    const auto key = proc_key(pipeline, stage, pull);
    const auto [it, inserted] = proc_of.try_emplace(key, proc_names.size());
    if (inserted) {
      std::ostringstream os;
      if (pull) {
        os << "pull(p" << pipeline << "/s" << stage << ")";
      } else {
        os << "p" << pipeline << "/s" << stage;
      }
      proc_names.push_back(os.str());
    }
    return it->second;
  };

  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    switch (e.kind) {
      case EventKind::kForward:
      case EventKind::kBackward:
      case EventKind::kUpdate:
        if (e.batch < 0) break;  // not batch-scoped: not a protocol event
        idx.push_back(i);
        intern_proc(e.pipeline, e.stage, false);
        pipelines.insert(e.pipeline);
        break;
      case EventKind::kElasticPull:
        idx.push_back(i);
        intern_proc(e.pipeline, e.stage, true);
        pipelines.insert(e.pipeline);
        break;
      case EventKind::kCounter:
        if (e.counter == CounterId::kSyncLag) {
          report.max_sync_lag = std::max(report.max_sync_lag, e.value);
        }
        break;
      default:
        break;
    }
  }
  report.events_checked = idx.size();
  report.processes = proc_names.size();
  report.pipelines = pipelines.size();

  // ---- per-process event lists (trace order == t_begin order) ------------
  std::vector<std::vector<std::size_t>> by_proc(proc_names.size());
  for (const auto i : idx) {
    const TraceEvent& e = events[i];
    by_proc[intern_proc(e.pipeline, e.stage,
                        e.kind == EventKind::kElasticPull)]
        .push_back(i);
  }

  // ---- crash epochs -------------------------------------------------------
  // A kPipelineCrash aborts whatever batch was in flight on that pipeline:
  // the aborted tag is never closed by an update, so without an epoch bump
  // the post-restore batch would reuse tag 0 *in the same scope* and trip
  // false reorder violations. The crash marker is stamped after every worker
  // of the pipeline joined, so all aborted-batch spans begin before it and
  // all post-recovery spans begin after — t_begin cleanly classifies.
  std::unordered_map<std::uint32_t, std::vector<double>> crash_times;
  for (const auto& e : events) {
    if (e.kind == EventKind::kPipelineCrash) {
      crash_times[e.pipeline].push_back(e.t_begin);
    }
  }
  auto epoch_of = [&](const TraceEvent& e) -> std::uint32_t {
    const auto it = crash_times.find(e.pipeline);
    if (it == crash_times.end()) return 0;
    const auto& ts = it->second;  // time-sorted (events are)
    return static_cast<std::uint32_t>(
        std::upper_bound(ts.begin(), ts.end(), e.t_begin) - ts.begin());
  };

  // ---- batch-tag scopes ---------------------------------------------------
  // A stage's kUpdate for tag b closes b's scope on that process; later
  // spans reusing the tag are a new flushed iteration. Flushed schedules
  // commit exactly one update per (stage, batch), so the scope counters
  // advance in lockstep across stages and the same physical micro-batch
  // gets the same (scope, batch, mb) key on both ends of a link. The crash
  // epoch is folded into the scope value, restarting tag scopes after every
  // pipeline crash.
  std::unordered_map<std::size_t, std::uint32_t> scope_of;
  for (const auto& plist : by_proc) {
    std::unordered_map<std::uint64_t, std::uint32_t> closed;  // (epoch, tag)
    for (const auto i : plist) {
      const TraceEvent& e = events[i];
      if (e.kind == EventKind::kElasticPull) continue;
      const std::uint32_t epoch = epoch_of(e);
      const std::uint64_t tag =
          (static_cast<std::uint64_t>(epoch) << 32) |
          static_cast<std::uint32_t>(e.batch);
      scope_of[i] = (epoch << 16) | closed[tag];
      if (e.kind == EventKind::kUpdate) ++closed[tag];
    }
  }

  // ---- 1. no micro-batch reordering within a stage -----------------------
  // Per (stage process, batch): forwards strictly in micro-batch order,
  // backwards likewise, and every backward after its own forward.
  for (std::size_t p = 0; p < by_proc.size(); ++p) {
    struct BatchState {
      int last_fwd = -1;
      int last_bwd = -1;
      std::unordered_set<int> forwarded;
    };
    std::unordered_map<std::uint64_t, BatchState> batches;  // scoped tag
    auto scoped = [&](std::size_t i, int batch) {
      return (static_cast<std::uint64_t>(scope_of[i]) << 32) |
             static_cast<std::uint32_t>(batch);
    };
    for (const auto i : by_proc[p]) {
      const TraceEvent& e = events[i];
      if (e.kind == EventKind::kForward) {
        auto& b = batches[scoped(i, e.batch)];
        if (e.micro_batch <= b.last_fwd) {
          violate("micro-batch reorder on " + proc_names[p] + ": " +
                  describe(e) + " forwarded after micro-batch " +
                  std::to_string(b.last_fwd));
        }
        b.last_fwd = std::max(b.last_fwd, e.micro_batch);
        b.forwarded.insert(e.micro_batch);
      } else if (e.kind == EventKind::kBackward) {
        auto& b = batches[scoped(i, e.batch)];
        if (e.micro_batch <= b.last_bwd) {
          violate("micro-batch reorder on " + proc_names[p] + ": " +
                  describe(e) + " backwarded after micro-batch " +
                  std::to_string(b.last_bwd));
        }
        b.last_bwd = std::max(b.last_bwd, e.micro_batch);
        if (b.forwarded.count(e.micro_batch) == 0) {
          violate("backward before forward on " + proc_names[p] + ": " +
                  describe(e));
        }
      }
    }
  }

  // ---- 2. FIFO delivery per link -----------------------------------------
  // The order stage k produced messages must be the order stage k+1 (acts)
  // / stage k (grads) consumed them: each consumer-side sequence, mapped to
  // producer-side positions, must be increasing.
  {
    // Producer position of each forward/backward, per (p, stage, b, mb).
    std::unordered_map<std::uint64_t, std::size_t> f_pos;
    std::unordered_map<std::uint64_t, std::size_t> b_pos;
    for (std::size_t p = 0; p < by_proc.size(); ++p) {
      std::size_t nf = 0;
      std::size_t nb = 0;
      for (const auto i : by_proc[p]) {
        const TraceEvent& e = events[i];
        if (e.kind == EventKind::kForward) {
          f_pos.emplace(mb_key(e.pipeline, e.stage, scope_of[i], e.batch,
                               e.micro_batch),
                        nf++);
        } else if (e.kind == EventKind::kBackward) {
          b_pos.emplace(mb_key(e.pipeline, e.stage, scope_of[i], e.batch,
                               e.micro_batch),
                        nb++);
        }
      }
    }
    for (std::size_t p = 0; p < by_proc.size(); ++p) {
      // Consumer side: forwards consume from stage-1, backwards from
      // stage+1. Walk each consumer sequence and require the producer
      // positions to increase.
      long last_f_src = -1;
      long last_b_src = -1;
      for (const auto i : by_proc[p]) {
        const TraceEvent& e = events[i];
        if (e.kind == EventKind::kForward && e.stage > 0) {
          const auto it = f_pos.find(mb_key(e.pipeline, e.stage - 1,
                                            scope_of[i], e.batch,
                                            e.micro_batch));
          if (it == f_pos.end()) continue;  // upstream span missing
          const auto src = static_cast<long>(it->second);
          if (src < last_f_src) {
            violate("FIFO violation on acts[" + std::to_string(e.stage - 1) +
                    "] of pipeline " + std::to_string(e.pipeline) + ": " +
                    describe(e) + " consumed out of production order");
          }
          last_f_src = std::max(last_f_src, src);
        } else if (e.kind == EventKind::kBackward) {
          const auto it = b_pos.find(mb_key(e.pipeline, e.stage + 1,
                                            scope_of[i], e.batch,
                                            e.micro_batch));
          if (it == b_pos.end()) continue;  // last stage / span missing
          const auto src = static_cast<long>(it->second);
          if (src < last_b_src) {
            violate("FIFO violation on grads[" + std::to_string(e.stage) +
                    "] of pipeline " + std::to_string(e.pipeline) + ": " +
                    describe(e) + " consumed out of production order");
          }
          last_b_src = std::max(last_b_src, src);
        }
      }
    }
  }

  // ---- 3. message edges: vector clocks + causal timestamps ---------------
  // First occurrence index of each span, for cross-stage edge lookup.
  std::unordered_map<std::uint64_t, std::size_t> f_ev;
  std::unordered_map<std::uint64_t, std::size_t> b_ev;
  for (const auto i : idx) {
    const TraceEvent& e = events[i];
    if (e.kind == EventKind::kForward) {
      f_ev.emplace(
          mb_key(e.pipeline, e.stage, scope_of[i], e.batch, e.micro_batch),
          i);
    } else if (e.kind == EventKind::kBackward) {
      b_ev.emplace(
          mb_key(e.pipeline, e.stage, scope_of[i], e.batch, e.micro_batch),
          i);
    }
  }

  std::unordered_map<std::size_t, std::vector<std::uint32_t>> clock_of;
  std::vector<std::vector<std::uint32_t>> proc_clock(
      proc_names.size(), std::vector<std::uint32_t>(proc_names.size(), 0));

  // The sender's span bound a receive must respect: its end under virtual
  // (simulated) clocks, only its begin under wall clocks (see header).
  auto send_bound = [&](const TraceEvent& pred) {
    return options.strict ? pred.t_end : pred.t_begin;
  };
  auto check_edge = [&](const TraceEvent& pred, const TraceEvent& succ,
                        const char* link, const std::size_t pred_i) {
    ++report.edges;
    if (succ.t_begin + eps < send_bound(pred)) {
      std::ostringstream os;
      os << "causality inversion over " << link << ": " << describe(succ)
         << " begins before its " << (options.strict ? "strict" : "weak")
         << " happens-before bound from " << describe(pred);
      const auto it = clock_of.find(pred_i);
      if (it != clock_of.end()) os << " vc=" << format_clock(it->second);
      violate(os.str());
    }
  };
  auto join = [](std::vector<std::uint32_t>& into,
                 const std::vector<std::uint32_t>& other) {
    for (std::size_t c = 0; c < into.size(); ++c) {
      into[c] = std::max(into[c], other[c]);
    }
  };

  for (const auto i : idx) {
    const TraceEvent& e = events[i];
    const std::size_t p =
        intern_proc(e.pipeline, e.stage, e.kind == EventKind::kElasticPull);
    auto& vc = proc_clock[p];
    if (e.kind == EventKind::kForward && e.stage > 0) {
      const auto it =
          f_ev.find(mb_key(e.pipeline, e.stage - 1, scope_of[i], e.batch,
                           e.micro_batch));
      if (it != f_ev.end()) {
        check_edge(events[it->second], e, "activation link", it->second);
        const auto cit = clock_of.find(it->second);
        if (cit != clock_of.end()) join(vc, cit->second);
      }
    } else if (e.kind == EventKind::kBackward) {
      const auto it =
          b_ev.find(mb_key(e.pipeline, e.stage + 1, scope_of[i], e.batch,
                           e.micro_batch));
      if (it != b_ev.end()) {
        check_edge(events[it->second], e, "gradient link", it->second);
        const auto cit = clock_of.find(it->second);
        if (cit != clock_of.end()) join(vc, cit->second);
      }
    }
    ++vc[p];
    clock_of.emplace(i, vc);
  }

  // ---- 4. grad applied before elastic pull -------------------------------
  // The reference is co-partitioned with the pipeline (paper §3), so every
  // stage pulls its own shard: the j-th pull on (pipeline, stage) must
  // follow the j-th optimizer update of that same stage (§3.2 ❷: push/pull
  // happens on batch boundaries, after the local commit). Stages are not
  // ordered against each other — a stage may pull before a peer stage has
  // updated. Pull spans carry no batch tag, so the pairing is by occurrence
  // index.
  //
  // Crash recovery breaks that index pairing legitimately: a mid-batch death
  // aborts a batch whose updates never commit on some stages, and a
  // pipeline restored from a checkpoint re-enters the *same* round that
  // detached it. On a pipeline with crash epochs the strict pairing is
  // therefore replaced, per stage, by the weaker-but-sound rule: every pull
  // must follow the latest update its stage committed so far *in its own
  // epoch* (a pull preceding all of its epoch's updates is exempt).
  {
    using StageKey = std::pair<std::uint32_t, std::uint32_t>;
    std::map<StageKey, std::vector<std::size_t>> pulls;
    std::map<StageKey, std::vector<std::size_t>> updates;  // trace order
    for (const auto i : idx) {
      const TraceEvent& e = events[i];
      if (e.kind == EventKind::kElasticPull) {
        pulls[{e.pipeline, e.stage}].push_back(i);
      } else if (e.kind == EventKind::kUpdate) {
        updates[{e.pipeline, e.stage}].push_back(i);
      }
    }
    static const std::vector<std::size_t> kNone;
    for (const auto& [key, plist] : pulls) {
      const auto [pipeline, stage] = key;
      const auto uit = updates.find(key);
      const auto& ulist = uit == updates.end() ? kNone : uit->second;
      const bool crashed = crash_times.count(pipeline) != 0;
      const std::size_t p = intern_proc(pipeline, stage, /*pull=*/true);
      for (std::size_t j = 0; j < plist.size(); ++j) {
        const TraceEvent& pe = events[plist[j]];
        std::size_t ui = 0;
        if (crashed) {
          // Latest update before this pull (indices are t_begin-ordered);
          // an edge is required only when it belongs to the pull's epoch.
          const auto nxt =
              std::upper_bound(ulist.begin(), ulist.end(), plist[j]);
          if (nxt == ulist.begin()) continue;
          ui = *(nxt - 1);
          if (epoch_of(events[ui]) != epoch_of(pe)) continue;
        } else if (ulist.size() <= j) {
          violate("elastic pull " + std::to_string(j) + " of p" +
                  std::to_string(pipeline) + "/s" + std::to_string(stage) +
                  " has no matching update on its stage: " + describe(pe));
          continue;
        } else {
          ui = ulist[j];
        }
        check_edge(events[ui], pe, "elastic round", ui);
        const auto cit = clock_of.find(ui);
        if (cit != clock_of.end()) join(proc_clock[p], cit->second);
      }
    }
  }

  // ---- 5. sync lag bound -------------------------------------------------
  if (options.sync_lag >= 0 &&
      report.max_sync_lag > static_cast<double>(options.sync_lag) + 0.5) {
    std::ostringstream os;
    os << "sync_lag exceeded: counter reached " << report.max_sync_lag
       << " against a bound of " << options.sync_lag;
    violate(os.str());
  }

  report.ok = report.violations_total == 0;
  return report;
}

}  // namespace avgpipe::trace
