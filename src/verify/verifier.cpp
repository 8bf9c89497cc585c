#include "verify/verifier.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <sstream>
#include <unordered_map>

#include "common/check.hpp"

namespace avgpipe::verify {

namespace {

using schedule::Kind;
using schedule::OpKind;

/// K stages + driver (the driver is also the elastic reference process). K
/// is capped well above anything the paper evaluates so states stay one
/// byte per process.
constexpr std::size_t kMaxProcesses = 12;
constexpr std::size_t kMaxStages = kMaxProcesses - 1;
constexpr std::size_t kMaxPositions = 255;

/// One visible protocol operation of a process.
struct Action {
  enum Type : std::uint8_t { kSend, kRecv };
  Type type = kRecv;
  std::uint16_t channel = 0;
  std::string label;
};

struct ChannelModel {
  std::string name;
  std::size_t capacity = 0;
  bool stage_link = false;  ///< an acts/grads payload link
  bool act_link = false;    ///< carries activations (counts as in-flight)
};

struct ProcessModel {
  std::string name;
  bool is_stage = false;
  std::vector<Action> actions;
  /// net[pos][ch]: sends minus recvs this process performed on channel `ch`
  /// within its first `pos` actions. Channel occupancy at any global state
  /// is the sum of `net` over all processes — states never store channel
  /// contents explicitly.
  std::vector<std::vector<std::int16_t>> net;
  /// Stash level (forwarded-but-not-backwarded micro-batches) after the
  /// first `pos` actions; all zero for non-stage processes.
  std::vector<std::int16_t> stash;
};

struct Model {
  ModelConfig cfg;
  std::vector<ChannelModel> channels;
  std::vector<ProcessModel> procs;
  std::size_t link_cap = 0;
  std::size_t derived_cap = 0;
};

std::string mb_tag(int batch, int micro_batch) {
  std::ostringstream os;
  os << 'b' << batch << ".m" << micro_batch;
  return os.str();
}

/// Compiles the runtime's message-passing protocol into per-process action
/// automata. Mirrors runtime/pipeline_runtime.cpp: stage workers recv a
/// start token per batch, execute their schedule:: stream (forwards recv an
/// activation then send one downstream; backwards recv a gradient then send
/// one upstream), and post a done token; the driver dispatches start tokens,
/// feeds all M inputs and joins K dones. Under elastic averaging the driver
/// is the reference process: in every batch b >= lag >= 1 it folds round
/// b - lag after its feeds and publishes it, and each stage waits for that
/// publish before its sync read (core::AvgPipe's published_ counter, one
/// token per stage here). Lag 0 folds after the joins, where no stage
/// waits, so it adds no protocol action.
Model build_model(const ModelConfig& cfg) {
  AVGPIPE_CHECK(cfg.kind == Kind::kAfab || cfg.kind == Kind::kOneFOneB ||
                    cfg.kind == Kind::kAdvanceForward,
                "verifier models the flushed runtime schedules; got "
                    << schedule::to_string(cfg.kind));
  AVGPIPE_CHECK(cfg.num_stages >= 1 && cfg.num_stages <= kMaxStages,
                "num_stages must be in [1, " << kMaxStages << "], got "
                                             << cfg.num_stages);
  AVGPIPE_CHECK(cfg.micro_batches >= 1, "micro_batches must be >= 1");
  AVGPIPE_CHECK(cfg.num_batches >= 1, "num_batches must be >= 1");

  Model m;
  m.cfg = cfg;
  const std::size_t k_stages = cfg.num_stages;
  const std::size_t micro = cfg.micro_batches;
  // The runtime derives advance_num = K-1 when unset (its 1F1B default).
  std::size_t advance = cfg.advance_num;
  if (advance == 0) advance = k_stages - 1;
  m.cfg.advance_num = advance;

  m.derived_cap =
      schedule::max_send_run_ahead(cfg.kind, k_stages, micro, advance) + 1;
  m.link_cap = cfg.link_capacity > 0 ? cfg.link_capacity : m.derived_cap;

  // -- channel table ------------------------------------------------------
  const std::size_t n_links = k_stages - 1;
  const std::size_t ch_input = 0;
  const std::size_t ch_acts = 1;               // acts[k] = ch_acts + k
  const std::size_t ch_grads = ch_acts + n_links;
  const std::size_t ch_start = ch_grads + n_links;  // start[k] = ch_start + k
  const std::size_t ch_done = ch_start + k_stages;
  const std::size_t ch_publish = ch_done + 1;  // publish[k] = ch_publish + k
  const std::size_t lag = cfg.sync_lag;        // read only when elastic
  const bool publishes = cfg.elastic != ElasticMode::kNone && lag > 0;
  const auto publish_in = [&](std::size_t b) { return publishes && b >= lag; };

  const std::size_t input_cap = std::max(micro, m.link_cap);
  m.channels.push_back({"input", input_cap, false, true});
  for (std::size_t l = 0; l < n_links; ++l) {
    m.channels.push_back({"acts[" + std::to_string(l) + "]", m.link_cap,
                          true, true});
  }
  for (std::size_t l = 0; l < n_links; ++l) {
    m.channels.push_back({"grads[" + std::to_string(l) + "]", m.link_cap,
                          true, false});
  }
  for (std::size_t k = 0; k < k_stages; ++k) {
    // kStartCapacity: one in-flight start token per stage, +1 slack.
    m.channels.push_back({"start[" + std::to_string(k) + "]", 2, false,
                          false});
  }
  m.channels.push_back({"done", k_stages, false, false});
  for (std::size_t k = 0; publishes && k < k_stages; ++k) {
    // One publish per batch, received within that batch.
    m.channels.push_back({"publish[" + std::to_string(k) + "]", 1, false,
                          false});
  }

  // -- one schedule batch, replayed per batch like worker_loop ------------
  schedule::ScheduleParams params;
  params.kind = cfg.kind;
  params.num_stages = k_stages;
  params.micro_batches = micro;
  params.num_batches = 1;
  params.advance_num = advance;
  const auto sched = schedule::make_schedule(params);  // throws if invalid
  const auto valid = schedule::check_schedule(sched, micro, 1);
  AVGPIPE_CHECK(valid.ok, "schedule failed validation: " << valid.error);

  // -- stage processes ----------------------------------------------------
  for (std::size_t k = 0; k < k_stages; ++k) {
    ProcessModel p;
    p.name = "stage" + std::to_string(k);
    p.is_stage = true;
    const bool first = k == 0;
    const bool last = k + 1 == k_stages;
    std::vector<std::int16_t> stash_deltas;  // parallel to p.actions
    for (std::size_t b = 0; b < cfg.num_batches; ++b) {
      const int bi = static_cast<int>(b);
      p.actions.push_back({Action::kRecv,
                           static_cast<std::uint16_t>(ch_start + k),
                           "recv start b" + std::to_string(b)});
      stash_deltas.push_back(0);
      for (const auto& in : sched.stages[k].instrs) {
        switch (in.kind) {
          case OpKind::kForward: {
            const std::size_t src = first ? ch_input : ch_acts + k - 1;
            p.actions.push_back({Action::kRecv,
                                 static_cast<std::uint16_t>(src),
                                 "recv act " + mb_tag(bi, in.micro_batch)});
            // The stash fills as soon as the activation is held locally;
            // compute is invisible to the protocol, so this is equivalent
            // to counting at forward completion.
            stash_deltas.push_back(1);
            if (!last) {
              p.actions.push_back(
                  {Action::kSend, static_cast<std::uint16_t>(ch_acts + k),
                   "send act " + mb_tag(bi, in.micro_batch)});
              stash_deltas.push_back(0);
            }
            break;
          }
          case OpKind::kBackward: {
            std::int16_t pending = -1;  // stash released by this backward
            if (!last) {
              p.actions.push_back(
                  {Action::kRecv, static_cast<std::uint16_t>(ch_grads + k),
                   "recv grad " + mb_tag(bi, in.micro_batch)});
              stash_deltas.push_back(pending);
              pending = 0;
            }
            if (!first) {
              p.actions.push_back(
                  {Action::kSend,
                   static_cast<std::uint16_t>(ch_grads + k - 1),
                   "send grad " + mb_tag(bi, in.micro_batch)});
              stash_deltas.push_back(pending);
              pending = 0;
            }
            // K == 1: a backward with no channel ops; its stash release is
            // invisible between actions, which can only under-report a
            // *minimum*, never the peak.
            break;
          }
          case OpKind::kUpdate:
            break;  // no channel traffic
          case OpKind::kAllReduce:
            AVGPIPE_THROW("all-reduce in a flushed pipeline stream");
        }
      }
      if (publish_in(b)) {
        // The end hook's pull reads the reference once round b - lag is in.
        p.actions.push_back({Action::kRecv,
                             static_cast<std::uint16_t>(ch_publish + k),
                             "await fold b" + std::to_string(b)});
        stash_deltas.push_back(0);
      }
      p.actions.push_back({Action::kSend, static_cast<std::uint16_t>(ch_done),
                           "send done b" + std::to_string(b)});
      stash_deltas.push_back(0);
    }
    // Prefix sums: stash level after each position.
    p.stash.assign(p.actions.size() + 1, 0);
    for (std::size_t i = 0; i < p.actions.size(); ++i) {
      p.stash[i + 1] = static_cast<std::int16_t>(p.stash[i] + stash_deltas[i]);
    }
    m.procs.push_back(std::move(p));
  }

  // -- driver process -----------------------------------------------------
  {
    ProcessModel p;
    p.name = "driver";
    for (std::size_t b = 0; b < cfg.num_batches; ++b) {
      for (std::size_t k = 0; k < k_stages; ++k) {
        p.actions.push_back({Action::kSend,
                             static_cast<std::uint16_t>(ch_start + k),
                             "start b" + std::to_string(b) + " -> stage " +
                                 std::to_string(k)});
      }
      for (std::size_t mb = 0; mb < micro; ++mb) {
        p.actions.push_back({Action::kSend,
                             static_cast<std::uint16_t>(ch_input),
                             "feed " + mb_tag(static_cast<int>(b),
                                              static_cast<int>(mb))});
      }
      for (std::size_t k = 0; publish_in(b) && k < k_stages; ++k) {
        p.actions.push_back({Action::kSend,
                             static_cast<std::uint16_t>(ch_publish + k),
                             "publish fold b" + std::to_string(b - lag) +
                                 " -> stage " + std::to_string(k)});
      }
      for (std::size_t k = 0; k < k_stages; ++k) {
        p.actions.push_back({Action::kRecv,
                             static_cast<std::uint16_t>(ch_done),
                             "join done b" + std::to_string(b)});
      }
    }
    // Folds after the joins and synchronize()'s drain touch no channel.
    p.stash.assign(p.actions.size() + 1, 0);
    m.procs.push_back(std::move(p));
  }

  AVGPIPE_CHECK(m.procs.size() <= kMaxProcesses, "too many processes");
  for (const auto& p : m.procs) {
    AVGPIPE_CHECK(p.actions.size() <= kMaxPositions,
                  p.name << " automaton too long (" << p.actions.size()
                         << " actions; raise num_batches/micro_batches "
                            "limits only with a wider state encoding)");
  }

  // Per-process per-position net channel counts.
  for (auto& p : m.procs) {
    p.net.assign(p.actions.size() + 1,
                 std::vector<std::int16_t>(m.channels.size(), 0));
    for (std::size_t i = 0; i < p.actions.size(); ++i) {
      p.net[i + 1] = p.net[i];
      const auto& a = p.actions[i];
      p.net[i + 1][a.channel] = static_cast<std::int16_t>(
          p.net[i + 1][a.channel] + (a.type == Action::kSend ? 1 : -1));
    }
  }
  return m;
}

/// Global protocol state: one position byte per process.
struct StateKey {
  std::array<std::uint8_t, kMaxProcesses> pos{};
  bool operator==(const StateKey& other) const { return pos == other.pos; }
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& k) const {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (const auto b : k.pos) {
      h ^= b;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

using Mask = std::uint16_t;

struct Node {
  StateKey key;
  std::uint32_t parent = 0;
  std::uint8_t via_proc = 0;
  /// Processes never yet expanded from this state (sleep-set bookkeeping:
  /// a revisit with a smaller sleep set re-expands exactly the difference).
  Mask unexpanded = 0;
};

constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

/// Breadth-first explorer with sleep-set partial-order reduction. Sleep
/// sets prune only transitions between states that are reached anyway, so
/// every reachable state is still visited exactly once — which keeps the
/// occupancy/stash peaks exact — while commuting interleavings of actions
/// on different channels stop multiplying the edge count.
class Explorer {
 public:
  Explorer(const Model& m, Report& r) : m_(m), r_(r) {
    n_procs_ = m_.procs.size();
    all_mask_ = static_cast<Mask>((1u << n_procs_) - 1u);
  }

  void run() {
    StateKey init{};
    std::vector<std::int32_t> occ(m_.channels.size(), 0);
    discover(init, kNoNode, 0, 0, occ);
    while (!queue_.empty() && !stop_) {
      const QItem item = queue_.front();
      queue_.pop_front();
      process(item.node, item.sleep);
      if (nodes_.size() > m_.cfg.max_states) {
        r_.verdict = Verdict::kStateLimit;
        r_.diagnosis = "state budget exhausted after " +
                       std::to_string(nodes_.size()) + " states";
        stop_ = true;
      }
    }
    r_.states = nodes_.size();
    r_.complete = !stop_;
    if (!stop_ && r_.verdict == Verdict::kStateLimit) {
      r_.verdict = Verdict::kOk;  // ran to completion with no violation
    }
  }

 private:
  struct QItem {
    std::uint32_t node;
    Mask sleep;
  };

  const Action* next_action(const StateKey& s, std::size_t p) const {
    const auto& proc = m_.procs[p];
    const std::size_t pos = s.pos[p];
    if (pos >= proc.actions.size()) return nullptr;
    return &proc.actions[pos];
  }

  bool enabled(const Action& a, const std::vector<std::int32_t>& occ) const {
    const auto o = occ[a.channel];
    return a.type == Action::kSend
               ? o < static_cast<std::int32_t>(m_.channels[a.channel].capacity)
               : o > 0;
  }

  void compute_occ(const StateKey& s, std::vector<std::int32_t>& occ) const {
    std::fill(occ.begin(), occ.end(), 0);
    for (std::size_t p = 0; p < n_procs_; ++p) {
      const auto& net = m_.procs[p].net[s.pos[p]];
      for (std::size_t c = 0; c < occ.size(); ++c) occ[c] += net[c];
    }
  }

  /// First sight of a state: record it, fold it into the peaks, and check
  /// the safety predicates (parked send, deadlock). Exploration from it is
  /// queued by the caller.
  void discover(const StateKey& key, std::uint32_t parent,
                std::uint8_t via_proc, Mask sleep,
                const std::vector<std::int32_t>& occ) {
    const auto [it, inserted] =
        visited_.try_emplace(key, static_cast<std::uint32_t>(nodes_.size()));
    if (!inserted) {
      Node& n = nodes_[it->second];
      if ((n.unexpanded & ~sleep) != 0) {
        queue_.push_back({it->second, sleep});
      } else {
        ++r_.sleep_skips;
      }
      return;
    }
    nodes_.push_back({key, parent, via_proc, all_mask_});
    const auto id = it->second;
    queue_.push_back({id, sleep});

    // Exact peaks over every distinct reachable state.
    for (std::size_t c = 0; c < occ.size(); ++c) {
      r_.channels[c].peak =
          std::max(r_.channels[c].peak, static_cast<std::size_t>(occ[c]));
    }
    std::size_t total_in_flight = 0;
    for (std::size_t c = 0; c < occ.size(); ++c) {
      if (m_.channels[c].stage_link && m_.channels[c].act_link) {
        total_in_flight += static_cast<std::size_t>(occ[c]);
      }
    }
    for (std::size_t p = 0; p < n_procs_; ++p) {
      if (!m_.procs[p].is_stage) continue;
      const auto stash =
          static_cast<std::size_t>(m_.procs[p].stash[key.pos[p]]);
      r_.peak_stash[p] = std::max(r_.peak_stash[p], stash);
      total_in_flight += stash;
    }
    r_.peak_in_flight = std::max(r_.peak_in_flight, total_in_flight);

    // Safety predicates. The "+1 slack" contract is that a stage link never
    // fills: one slot of headroom means no interleaving can park a send.
    // A full link is always entered via the send that filled it (`via_proc`
    // on first discovery), so BFS yields the shortest filling trace.
    if (m_.cfg.check_send_parking && parent != kNoNode) {
      for (std::size_t c = 0; c < occ.size() && !stop_; ++c) {
        if (m_.channels[c].stage_link &&
            static_cast<std::size_t>(occ[c]) >= m_.channels[c].capacity) {
          report_full_link(id, via_proc, c, occ);
        }
      }
    }
    bool any_enabled = false;
    bool any_pending = false;
    for (std::size_t p = 0; p < n_procs_ && !stop_; ++p) {
      const Action* a = next_action(key, p);
      if (a == nullptr) continue;
      any_pending = true;
      if (enabled(*a, occ)) any_enabled = true;
    }
    if (!stop_ && any_pending && !any_enabled) report_deadlock(id, key, occ);
  }

  void process(std::uint32_t id, Mask sleep) {
    Mask to_explore = 0;
    Mask explored_before = 0;
    {
      Node& n = nodes_[id];
      to_explore = static_cast<Mask>(n.unexpanded & ~sleep);
      if (to_explore == 0) return;
      explored_before = static_cast<Mask>(all_mask_ & ~n.unexpanded);
      n.unexpanded = static_cast<Mask>(n.unexpanded & sleep);
    }
    const StateKey key = nodes_[id].key;  // copy: nodes_ may reallocate
    std::vector<std::int32_t> occ(m_.channels.size(), 0);
    compute_occ(key, occ);

    Mask done_mask = explored_before;
    for (std::size_t p = 0; p < n_procs_ && !stop_; ++p) {
      const auto bit = static_cast<Mask>(1u << p);
      if ((to_explore & bit) == 0) continue;
      const Action* a = next_action(key, p);
      if (a == nullptr || !enabled(*a, occ)) continue;

      StateKey succ = key;
      ++succ.pos[p];
      std::vector<std::int32_t> succ_occ = occ;
      succ_occ[a->channel] += a->type == Action::kSend ? 1 : -1;

      // Successor sleep set: everything already covered from this state
      // that commutes with `p` (touches a different channel) stays asleep.
      Mask succ_sleep = 0;
      for (std::size_t q = 0; q < n_procs_; ++q) {
        const auto qbit = static_cast<Mask>(1u << q);
        if ((done_mask & qbit) == 0 && (sleep & qbit) == 0) continue;
        const Action* qa = next_action(key, q);
        if (qa != nullptr && qa->channel != a->channel) succ_sleep |= qbit;
      }
      if (!m_.cfg.partial_order_reduction) succ_sleep = 0;

      ++r_.transitions;
      discover(succ, id, static_cast<std::uint8_t>(p), succ_sleep, succ_occ);
      done_mask |= bit;
    }
  }

  std::vector<Step> trace_to(std::uint32_t id) const {
    std::vector<Step> steps;
    for (std::uint32_t n = id; nodes_[n].parent != kNoNode;
         n = nodes_[n].parent) {
      const Node& node = nodes_[n];
      const std::size_t p = node.via_proc;
      // The action that produced this node is the parent's action at the
      // parent's position of process p.
      const StateKey& parent_key = nodes_[node.parent].key;
      const Action& a = m_.procs[p].actions[parent_key.pos[p]];
      steps.push_back({m_.procs[p].name,
                       std::string(a.type == Action::kSend ? "send " : "recv ") +
                           m_.channels[a.channel].name + ": " + a.label});
    }
    std::reverse(steps.begin(), steps.end());
    return steps;
  }

  void report_full_link(std::uint32_t id, std::size_t p, std::size_t c,
                        const std::vector<std::int32_t>& occ) {
    r_.verdict = Verdict::kSendParked;
    r_.counterexample = trace_to(id);
    std::ostringstream os;
    os << m_.procs[p].name << " fills " << m_.channels[c].name << " to "
       << occ[c] << "/" << m_.channels[c].capacity
       << " — the next send on this link parks (capacity does not exceed "
          "the schedule's run-ahead; the runtime's \"+1 slack\" headroom "
          "contract is violated after "
       << r_.counterexample.size() << " steps)";
    r_.diagnosis = os.str();
    r_.counterexample.push_back(
        {m_.procs[p].name,
         "LINK FULL: " + m_.channels[c].name + " at capacity " +
             std::to_string(m_.channels[c].capacity) +
             " — a subsequent send here parks"});
    stop_ = true;
  }

  void report_deadlock(std::uint32_t id, const StateKey& key,
                       const std::vector<std::int32_t>& occ) {
    r_.verdict = Verdict::kDeadlock;
    r_.counterexample = trace_to(id);
    std::ostringstream os;
    os << "reachable deadlock after " << r_.counterexample.size()
       << " steps:";
    for (std::size_t p = 0; p < n_procs_; ++p) {
      const Action* a = next_action(key, p);
      if (a == nullptr) continue;
      os << " [" << m_.procs[p].name << " blocked on "
         << (a->type == Action::kSend ? "send " : "recv ")
         << m_.channels[a->channel].name << " (" << occ[a->channel] << "/"
         << m_.channels[a->channel].capacity << ")]";
      r_.counterexample.push_back(
          {m_.procs[p].name,
           "BLOCKED: " + std::string(a->type == Action::kSend ? "send "
                                                              : "recv ") +
               m_.channels[a->channel].name + ": " + a->label});
    }
    r_.diagnosis = os.str();
    stop_ = true;
  }

  const Model& m_;
  Report& r_;
  std::size_t n_procs_ = 0;
  Mask all_mask_ = 0;
  bool stop_ = false;
  std::vector<Node> nodes_;
  std::unordered_map<StateKey, std::uint32_t, StateKeyHash> visited_;
  std::deque<QItem> queue_;
};

}  // namespace

const char* to_string(ElasticMode mode) {
  switch (mode) {
    case ElasticMode::kNone: return "none";
    case ElasticMode::kElastic: return "elastic";
  }
  return "?";
}

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk: return "deadlock-free";
    case Verdict::kDeadlock: return "DEADLOCK";
    case Verdict::kSendParked: return "SEND-PARKED";
    case Verdict::kInvalidSchedule: return "invalid-schedule";
    case Verdict::kStateLimit: return "state-limit";
  }
  return "?";
}

Report verify(const ModelConfig& config) {
  Report r;
  Model m;
  try {
    m = build_model(config);
  } catch (const std::exception& e) {
    r.verdict = Verdict::kInvalidSchedule;
    r.diagnosis = e.what();
    return r;
  }
  r.link_capacity_used = m.link_cap;
  r.derived_link_capacity = m.derived_cap;
  r.peak_stash.assign(config.num_stages, 0);
  for (const auto& c : m.channels) {
    r.channels.push_back({c.name, c.capacity, 0, c.stage_link});
  }
  Explorer explorer(m, r);
  explorer.run();
  for (const auto& c : r.channels) {
    if (c.stage_link) {
      r.peak_link_occupancy = std::max(r.peak_link_occupancy, c.peak);
    }
  }
  return r;
}

std::string format_report(const ModelConfig& config, const Report& report) {
  std::ostringstream os;
  os << schedule::to_string(config.kind) << " K=" << config.num_stages
     << " M=" << config.micro_batches << " B=" << config.num_batches
     << " advance=" << config.advance_num
     << " cap=" << report.link_capacity_used
     << (config.link_capacity > 0 ? " (override)" : "")
     << " elastic=" << to_string(config.elastic);
  if (config.elastic == ElasticMode::kElastic) {
    os << " lag=" << config.sync_lag;
  }
  os << "\n  verdict: " << to_string(report.verdict);
  os << "\n  states: " << report.states
     << "  transitions: " << report.transitions
     << "  sleep-skips: " << report.sleep_skips
     << (report.complete ? "" : "  [incomplete]");
  os << "\n  peak link occupancy: " << report.peak_link_occupancy
     << " (derived capacity " << report.derived_link_capacity << ")";
  os << "\n  peak in-flight activations: " << report.peak_in_flight;
  os << "\n  peak stash per stage:";
  for (const auto s : report.peak_stash) os << ' ' << s;
  os << "\n  channels:";
  for (const auto& c : report.channels) {
    os << ' ' << c.name << '=' << c.peak << '/' << c.capacity;
  }
  if (!report.diagnosis.empty()) {
    os << "\n  diagnosis: " << report.diagnosis;
  }
  if (!report.counterexample.empty()) {
    os << "\n  counterexample (" << report.counterexample.size()
       << " steps):";
    for (std::size_t i = 0; i < report.counterexample.size(); ++i) {
      os << "\n    " << i << ". " << report.counterexample[i].process << ": "
         << report.counterexample[i].action;
    }
  }
  os << "\n";
  return os.str();
}

}  // namespace avgpipe::verify
