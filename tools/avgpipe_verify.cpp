/// \file avgpipe_verify.cpp
/// CLI driver for the static schedule/protocol verifier and the trace
/// happens-before checker — the repo's offline correctness gate.
///
/// Schedule mode (default): model-check a grid of (kind, K, M, advance)
/// points, prove deadlock freedom and the non-parking-send contract, and
/// cross-check each point's exact peak link occupancy against the
/// schedule-derived capacity (run-ahead + 1, see
/// PipelineRuntime::link_capacity): the peak must equal capacity - 1.
///
///   avgpipe_verify                                  # default CI grid
///   avgpipe_verify --kinds=afab,1f1b,afp --stages=2:4 --micro-batches=2:8
///   avgpipe_verify --capacity=3                     # model an override
///   avgpipe_verify --no-slack                       # capacity = run-ahead:
///                                                   # reports the parked
///                                                   # send, exits 2
///   avgpipe_verify --elastic=async --sync-lag=2 --batches=3
///   avgpipe_verify --counterexample                 # print violation traces
///   avgpipe_verify --json=verify.json
///
/// Trace mode: replay a recorded Chrome trace through the happens-before
/// checker (FIFO per link, in-stage ordering, causal timestamps,
/// update-before-pull, sync-lag bound).
///
///   avgpipe_verify --mode=trace --trace=fig13.trace.json [--strict]
///                  [--sync-lag=N]
///
/// Exit codes: 0 all checks passed, 2 a violation was found, 3 usage error.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "schedule/schedule.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/happens_before.hpp"
#include "verify/verifier.hpp"

namespace {

using avgpipe::verify::ElasticMode;
using avgpipe::verify::ModelConfig;
using avgpipe::verify::Report;
using avgpipe::verify::Verdict;

struct Options {
  std::string mode = "schedule";
  std::vector<avgpipe::schedule::Kind> kinds;
  std::size_t stages_lo = 2, stages_hi = 4;
  std::size_t micro_lo = 2, micro_hi = 8;
  std::size_t batches = 1;
  std::vector<std::size_t> advances;  // empty: schedule-derived default
  std::size_t capacity = 0;           // 0: derived
  bool no_slack = false;              // capacity = run-ahead (slack removed)
  ElasticMode elastic = ElasticMode::kNone;
  bool sync = false;  // --elastic=sync
  std::size_t sync_lag = 1;
  bool allow_park = false;
  bool no_por = false;
  bool show_counterexample = false;
  std::string json_path;
  // trace mode
  std::string trace_path;
  bool strict = false;
  long trace_sync_lag = -1;
};

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "avgpipe_verify: " << what << "\n"
            << "  --mode=schedule|trace\n"
            << "  schedule: --kinds=afab,1f1b,afp --stages=LO:HI "
               "--micro-batches=LO:HI\n"
            << "            --advance=N[,N...] --batches=N --capacity=N "
               "--no-slack\n"
            << "            --elastic=none|sync|async --sync-lag=N "
               "--allow-park --no-por\n"
            << "            --counterexample --json=PATH\n"
            << "  trace:    --trace=PATH --strict --sync-lag=N\n";
  std::exit(3);
}

std::size_t parse_size(const std::string& v, const std::string& flag) {
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') usage_error("bad value for " + flag);
  return static_cast<std::size_t>(parsed);
}

void parse_range(const std::string& v, const std::string& flag,
                 std::size_t* lo, std::size_t* hi) {
  const auto colon = v.find(':');
  if (colon == std::string::npos) {
    *lo = *hi = parse_size(v, flag);
    return;
  }
  *lo = parse_size(v.substr(0, colon), flag);
  *hi = parse_size(v.substr(colon + 1), flag);
  if (*lo > *hi) usage_error(flag + " range is inverted");
}

avgpipe::schedule::Kind parse_kind(const std::string& name) {
  using avgpipe::schedule::Kind;
  if (name == "afab") return Kind::kAfab;
  if (name == "1f1b") return Kind::kOneFOneB;
  if (name == "afp") return Kind::kAdvanceForward;
  usage_error("unknown kind '" + name + "' (afab|1f1b|afp)");
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (flag == "--mode") {
      o.mode = val;
    } else if (flag == "--kinds") {
      std::stringstream ss(val);
      std::string item;
      while (std::getline(ss, item, ',')) o.kinds.push_back(parse_kind(item));
    } else if (flag == "--stages") {
      parse_range(val, flag, &o.stages_lo, &o.stages_hi);
    } else if (flag == "--micro-batches") {
      parse_range(val, flag, &o.micro_lo, &o.micro_hi);
    } else if (flag == "--advance") {
      std::stringstream ss(val);
      std::string item;
      while (std::getline(ss, item, ',')) {
        o.advances.push_back(parse_size(item, flag));
      }
    } else if (flag == "--batches") {
      o.batches = parse_size(val, flag);
    } else if (flag == "--capacity") {
      o.capacity = parse_size(val, flag);
    } else if (flag == "--no-slack") {
      o.no_slack = true;
    } else if (flag == "--elastic") {
      // sync is lag 0, whatever --sync-lag says.
      o.sync = val == "sync";
      if (val == "none") {
        o.elastic = ElasticMode::kNone;
      } else if (val == "sync" || val == "async") {
        o.elastic = ElasticMode::kElastic;
      } else {
        usage_error("unknown elastic mode '" + val + "'");
      }
    } else if (flag == "--sync-lag") {
      o.sync_lag = parse_size(val, flag);
      o.trace_sync_lag = static_cast<long>(o.sync_lag);
    } else if (flag == "--allow-park") {
      o.allow_park = true;
    } else if (flag == "--no-por") {
      o.no_por = true;
    } else if (flag == "--counterexample") {
      o.show_counterexample = true;
    } else if (flag == "--json") {
      o.json_path = val;
    } else if (flag == "--trace") {
      o.trace_path = val;
    } else if (flag == "--strict") {
      o.strict = true;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (o.kinds.empty()) {
    o.kinds = {avgpipe::schedule::Kind::kAfab,
               avgpipe::schedule::Kind::kOneFOneB,
               avgpipe::schedule::Kind::kAdvanceForward};
  }
  return o;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

int run_schedule_mode(const Options& o) {
  std::vector<std::pair<ModelConfig, Report>> results;
  int failures = 0;

  for (const auto kind : o.kinds) {
    for (std::size_t k = o.stages_lo; k <= o.stages_hi; ++k) {
      for (std::size_t m = o.micro_lo; m <= o.micro_hi; ++m) {
        std::vector<std::size_t> advances = o.advances;
        if (advances.empty()) {
          advances = {0};  // runtime default (K-1)
          if (kind == avgpipe::schedule::Kind::kAdvanceForward) {
            // AFP's interesting range: the 1F1B minimum up to AFAB-like
            // (clamped to the schedule's advance >= K-1 validity floor).
            advances = {k - 1, k, std::max(m, k - 1)};
            std::sort(advances.begin(), advances.end());
            advances.erase(std::unique(advances.begin(), advances.end()),
                           advances.end());
          }
        }
        for (const auto adv : advances) {
          ModelConfig cfg;
          cfg.kind = kind;
          cfg.num_stages = k;
          cfg.micro_batches = m;
          cfg.num_batches = o.batches;
          cfg.advance_num = adv;
          cfg.elastic = o.elastic;
          cfg.sync_lag = o.sync ? 0 : o.sync_lag;
          cfg.check_send_parking = !o.allow_park;
          cfg.partial_order_reduction = !o.no_por;
          cfg.link_capacity = o.capacity;
          if (o.no_slack) {
            // Remove the "+1 slack": the exact run-ahead, under which the
            // verifier must report a parked send instead of hanging.
            cfg.link_capacity = avgpipe::schedule::max_send_run_ahead(
                kind, k, m, adv == 0 ? k - 1 : adv);
          }
          Report r = avgpipe::verify::verify(cfg);
          const bool derived_cap = cfg.link_capacity == 0;
          const bool peak_matches =
              !derived_cap ||
              r.peak_link_occupancy + 1 == r.derived_link_capacity;
          if (!r.ok() || !peak_matches) ++failures;
          if (r.ok() && !peak_matches) {
            r.diagnosis = "peak link occupancy " +
                          std::to_string(r.peak_link_occupancy) +
                          " != derived capacity - 1 (" +
                          std::to_string(r.derived_link_capacity - 1) + ")";
          }
          results.emplace_back(cfg, std::move(r));
        }
      }
    }
  }

  avgpipe::Table table({"kind", "K", "M", "adv", "elastic", "cap", "verdict",
                        "peak-link", "in-flight", "states", "transitions"});
  for (const auto& [cfg, r] : results) {
    table.row()
        .cell(avgpipe::schedule::to_string(cfg.kind))
        .cell_int(static_cast<long long>(cfg.num_stages))
        .cell_int(static_cast<long long>(cfg.micro_batches))
        .cell_int(static_cast<long long>(cfg.advance_num))
        .cell(cfg.elastic == ElasticMode::kNone
                  ? "none"
                  : "lag " + std::to_string(cfg.sync_lag))
        .cell_int(static_cast<long long>(r.link_capacity_used))
        .cell(avgpipe::verify::to_string(r.verdict))
        .cell_int(static_cast<long long>(r.peak_link_occupancy))
        .cell_int(static_cast<long long>(r.peak_in_flight))
        .cell_int(static_cast<long long>(r.states))
        .cell_int(static_cast<long long>(r.transitions));
  }
  table.print();

  for (const auto& [cfg, r] : results) {
    if (!r.diagnosis.empty()) {
      std::cout << "\n" << avgpipe::schedule::to_string(cfg.kind)
                << " K=" << cfg.num_stages << " M=" << cfg.micro_batches
                << ": " << r.diagnosis << "\n";
    }
    if (o.show_counterexample && !r.counterexample.empty()) {
      std::cout << avgpipe::verify::format_report(cfg, r);
    }
  }

  if (!o.json_path.empty()) {
    std::ofstream out(o.json_path);
    out << "{\n  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& [cfg, r] = results[i];
      out << "    {\"kind\": \""
          << avgpipe::schedule::to_string(cfg.kind) << "\", \"stages\": "
          << cfg.num_stages << ", \"micro_batches\": " << cfg.micro_batches
          << ", \"advance\": " << cfg.advance_num << ", \"capacity\": "
          << r.link_capacity_used << ", \"verdict\": \""
          << avgpipe::verify::to_string(r.verdict)
          << "\", \"peak_link_occupancy\": " << r.peak_link_occupancy
          << ", \"peak_in_flight\": " << r.peak_in_flight
          << ", \"states\": " << r.states
          << ", \"diagnosis\": \"" << json_escape(r.diagnosis) << "\"}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"failures\": " << failures << "\n}\n";
  }

  std::cout << "\n" << results.size() << " configurations, " << failures
            << " failures\n";
  return failures == 0 ? 0 : 2;
}

int run_trace_mode(const Options& o) {
  if (o.trace_path.empty()) usage_error("--mode=trace needs --trace=PATH");
  std::ifstream in(o.trace_path);
  if (!in) {
    std::cerr << "avgpipe_verify: cannot open " << o.trace_path << "\n";
    return 3;
  }
  const auto events = avgpipe::trace::parse_chrome_trace(in);
  avgpipe::trace::HbOptions hb;
  hb.strict = o.strict;
  hb.sync_lag = o.trace_sync_lag;
  const auto report = avgpipe::trace::check_happens_before(events, hb);
  std::cout << report.summary() << "\n";
  for (const auto& v : report.violations) {
    std::cout << "  " << v.what << "\n";
  }
  if (report.violations_total > report.violations.size()) {
    std::cout << "  ... and "
              << report.violations_total - report.violations.size()
              << " more\n";
  }
  return report.ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  try {
    if (o.mode == "schedule") return run_schedule_mode(o);
    if (o.mode == "trace") return run_trace_mode(o);
  } catch (const std::exception& e) {
    std::cerr << "avgpipe_verify: " << e.what() << "\n";
    return 3;
  }
  usage_error("unknown mode '" + o.mode + "'");
}
