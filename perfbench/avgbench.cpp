/// \file avgbench.cpp
/// The repository benchmark: trains one AvgPipe workload for a fixed time
/// and reports end-to-end metrics (untraced run) or per-layer metrics (a run
/// that adds a traced pass and direct layer probes).
///
///   avgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///            [--workdir <dir>] [--smoke]
///
/// A run, in order:
///   1. pin every environment knob the library reads, print a fingerprint;
///   2. generate all inputs from the seed (off the clock);
///   3. set-up, at least three times: AvgPipe construction plus its first
///      iteration;
///   4. quality phase: a fixed sample budget from the initial weights in
///      fixed-size windows, the reference model's held-out loss checked
///      after each window with the clock stopped;
///   5. throughput phase: more windows until the run's training time
///      reaches --seconds and at least 100 iterations were timed;
///   6. with --trace 1: a traced pass on a second system, then direct
///      probes of each layer.
/// End-to-end metrics (trace 0):
///   samples_per_s     median over windows of training samples per second
///   iter_ms_p50/p90   time from a train_iteration's start to the next one's
///                     (or to its window's end): every timed iteration,
///                     checkpoint saves included, counts once
///   time_to_target_s  samples until the held-out loss first reaches the
///                     workload's target (interpolated between checks),
///                     over samples_per_s
///   eval_loss         held-out loss at the end of the sample budget
///   setup_s           median set-up time
///   peak_rss_mb       peak resident memory at the end of the budget
/// Every metric is printed by name with its unit; the last stdout line is a
/// JSON object {correct, attempted, failed, metrics}. The exit code is 0
/// only when every output check passed.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "breakdown.hpp"
#include "ckpt/state.hpp"
#include "common/thread_pool.hpp"
#include "core/avgpipe.hpp"
#include "layers.hpp"
#include "tensor/arena.hpp"
#include "tensor/ops.hpp"
#include "trace/analysis.hpp"
#include "util.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace avgpipe;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool smoke = false;
  std::string workdir = ".bench_build/work";
};

bool parse_args(int argc, char** argv, Options* o) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o->smoke = true;
    } else if (a == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      o->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o->trace = std::atoi(argv[++i]);
    } else if (a == "--workdir" && has_value) {
      o->workdir = argv[++i];
    } else {
      return false;
    }
  }
  return !o->workload.empty() && have_seed && o->seconds > 0 &&
         (o->trace == 0 || o->trace == 1);
}

/// Every environment knob the library resolves, pinned to one value so a
/// run does not depend on the caller's environment (nullptr: unset).
struct Knob {
  const char* name;
  const char* value;
};
constexpr Knob kKnobs[] = {
    {"AVGPIPE_NUM_THREADS", "4"},         // global kernel pool
    {"AVGPIPE_STAGE_THREADS", "1"},       // each of the 4 stage threads' share
    {"AVGPIPE_PIN_THREADS", "none"},      // no core pinning
    {"AVGPIPE_ARENA_MAX_MB", "256"},      // per-thread arena cache cap
    {"AVGPIPE_SYNC_COMPRESS", "off"},     // also pinned in AvgPipeConfig
    {"AVGPIPE_FAULT_PLAN", nullptr},      // also pinned in AvgPipeConfig
    {"AVGPIPE_CHANNEL_CAPACITY", nullptr},
    {"AVGPIPE_ASSERT_CHANNEL_SLACK", "0"},
};

/// Record the environment, then pin it. Runs before any library thread
/// exists, which is the env.hpp contract for setenv.
void pin_environment() {
  std::vector<std::string> inherited;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "AVGPIPE_", 8) == 0) inherited.emplace_back(*e);
  }
  std::printf("# fingerprint: nproc=%ld hardware_concurrency=%u build=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
              AVGBENCH_BUILD_TYPE);
  std::printf("# inherited AVGPIPE_* variables:%s\n", inherited.empty() ? " none" : "");
  for (const auto& kv : inherited) {
    std::printf("#   %s\n", kv.c_str());
    unsetenv(kv.substr(0, kv.find('=')).c_str());
  }
  std::printf("# pinned:");
  for (const auto& k : kKnobs) {
    if (k.value != nullptr) {
      setenv(k.name, k.value, 1);
      std::printf(" %s=%s", k.name, k.value);
    }
  }
  std::printf("\n");
}

struct System {
  std::unique_ptr<ckpt::CheckpointDir> checkpoints;
  std::unique_ptr<core::AvgPipe> pipe;
  long iterations = 0;
  long last_saved = -1;
  std::size_t next_round = 0;
};

class Bench {
 public:
  Bench(Options opt, Workload w) : opt_(std::move(opt)), w_(std::move(w)) {}

  int run();

 private:
  System make_system(trace::Tracer* tracer, const std::string& name);
  /// One train_iteration plus the workload's checkpoint cadence. Returns
  /// false when the system can no longer train.
  bool train(System& s);
  double eval_loss(System& s);
  void check(const std::string& what, bool ok, const std::string& detail);
  void traced_pass(double untraced_sps);

  Options opt_;
  Workload w_;
  Workload::Inputs in_;
  std::vector<std::vector<data::Batch>> rounds_;
  fault::FaultPlan no_faults_;
  std::size_t attempted_ = 0, failed_ = 0;
  bool correct_ = true;
  Metrics e2e_, layer_;
};

System Bench::make_system(trace::Tracer* tracer, const std::string& name) {
  System s;
  core::AvgPipeConfig cfg;
  cfg.num_pipelines = kPipelines;
  cfg.micro_batches = w_.micro_batches;
  cfg.boundaries = w_.boundaries;
  cfg.kind = schedule::Kind::kAdvanceForward;
  cfg.async_sync = true;
  cfg.sync_lag = 1;
  cfg.tracer = tracer;
  cfg.faults = &no_faults_;
  cfg.sync = w_.sync;
  cfg.sync_compression = core::SyncCompression{};
  if (w_.checkpoint_every > 0) {
    s.checkpoints = std::make_unique<ckpt::CheckpointDir>(opt_.workdir + "/" + name);
    cfg.checkpoints = s.checkpoints.get();
  }
  s.pipe = std::make_unique<core::AvgPipe>(w_.model, w_.optimizer, cfg);
  return s;
}

bool Bench::train(System& s) {
  ++attempted_;
  double loss = 0;
  try {
    loss = s.pipe->train_iteration(rounds_[s.next_round]);
  } catch (const std::exception& e) {
    ++failed_;
    std::printf("# iteration failed: %s\n", e.what());
    return false;
  }
  s.next_round = (s.next_round + 1) % rounds_.size();
  ++s.iterations;
  if (!std::isfinite(loss) || s.pipe->alive_pipelines() != kPipelines) {
    ++failed_;
  }
  if (w_.checkpoint_every > 0 &&
      s.iterations % static_cast<long>(w_.checkpoint_every) == 0) {
    s.last_saved = s.pipe->save_checkpoint().step;
  }
  return true;
}

double Bench::eval_loss(System& s) {
  nn::Sequential& model = s.pipe->eval_model();
  model.set_training(false);
  double sum = 0;
  for (const auto& b : in_.eval) {
    const tensor::Variable out = model.forward(tensor::Variable(b.inputs));
    sum += tensor::softmax_cross_entropy(out, b.targets).value()[0];
  }
  model.set_training(true);
  return sum / static_cast<double>(in_.eval.size());
}

void Bench::check(const std::string& what, bool ok, const std::string& detail) {
  std::printf("# check %-28s %s  %s\n", what.c_str(), ok ? "ok  " : "FAIL",
              detail.c_str());
  correct_ = correct_ && ok;
}

int Bench::run() {
  namespace fs = std::filesystem;
  fs::remove_all(opt_.workdir);
  fs::create_directories(opt_.workdir);
  const double budget = opt_.seconds;
  const std::size_t window_samples = w_.batch * kPipelines;

  auto t_inputs = Clock::now();
  in_ = w_.make_inputs(w_.quality_iters * kPipelines);
  for (std::size_t j = 0; j + kPipelines <= in_.train.size(); j += kPipelines) {
    rounds_.emplace_back(in_.train.begin() + static_cast<long>(j),
                         in_.train.begin() + static_cast<long>(j + kPipelines));
  }
  std::printf("# workload %s: %s\n# inputs: %zu train batches, %zu held-out "
              "batches, generated in %.2f s off the clock\n",
              w_.name.c_str(), w_.why.c_str(), in_.train.size(),
              in_.eval.size(), seconds_since(t_inputs));

  // Set-up: construction plus the first iteration, repeated; the last system
  // carries on into the quality phase (its first iteration is training time).
  // Small set-ups repeat more often, so the median rests on at least two
  // seconds of set-up work.
  const std::size_t min_setups = opt_.smoke ? 2 : 3, max_setups = 21;
  std::vector<double> setup_s, ctor_ms, first_ms;
  System sys;
  double train_clock = 0, setup_total = 0;
  bool alive = true;
  while (alive && setup_s.size() < max_setups &&
         (setup_s.size() < min_setups || (!opt_.smoke && setup_total < 2.0))) {
    sys = System{};
    const auto t0 = Clock::now();
    sys = make_system(nullptr, "setup" + std::to_string(setup_s.size()));
    const double ctor = seconds_since(t0);
    alive = train(sys);
    const double total = seconds_since(t0);
    setup_s.push_back(total);
    ctor_ms.push_back(1e3 * ctor);
    first_ms.push_back(1e3 * (total - ctor));
    setup_total += total;
    train_clock = total - ctor;
  }

  // Quality phase: fixed sample budget, evaluation off the clock.
  struct Sample {
    long iterations;
    double rss_mb;
  };
  std::vector<Sample> rss;
  // Every training window counts toward the timing metrics: the quality
  // phase's windows (the first one iteration short, set-up ran iteration 1)
  // and the throughput phase's. Checks run between windows with the clock
  // stopped, so no interval spans one.
  struct Window {
    double sps;
    double steal;  ///< share of the machine's CPU time the hypervisor took
    std::vector<double> intervals;
  };
  std::vector<Window> windows;
  std::size_t timed_intervals = 0;
  const auto run_window = [&](long stop) {
    Window win;
    const long first = sys.iterations;
    const CpuTicks ticks0 = read_cpu_ticks();
    const auto t0 = Clock::now();
    auto prev = t0;
    while (alive && sys.iterations < stop) {
      const auto start = Clock::now();
      if (sys.iterations > first) {
        win.intervals.push_back(std::chrono::duration<double>(start - prev).count());
      }
      prev = start;
      alive = train(sys);
    }
    const auto t1 = Clock::now();
    if (sys.iterations > first) {
      win.intervals.push_back(std::chrono::duration<double>(t1 - prev).count());
    }
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    train_clock += seconds;
    win.sps = static_cast<double>((sys.iterations - first) * window_samples) / seconds;
    win.steal = steal_share(ticks0, read_cpu_ticks());
    timed_intervals += win.intervals.size();
    windows.push_back(std::move(win));
    rss.push_back({sys.iterations, read_memory().rss_mb});
  };

  // Quality phase: a fixed sample budget, the held-out loss checked after
  // every window.
  const long window_iters = static_cast<long>(w_.window_iters);
  double iters_to_target = -1, clock_to_target = -1, final_loss = NAN;
  double prev_loss = NAN, prev_clock = 0;
  long prev_iters = 0;
  while (alive && sys.iterations < static_cast<long>(w_.quality_iters)) {
    run_window((sys.iterations / window_iters + 1) * window_iters);
    if (!alive) break;
    final_loss = eval_loss(sys);
    std::printf("# eval at iteration %4ld: held-out loss %.4f after %.3f s\n",
                sys.iterations, final_loss, train_clock);
    if (iters_to_target < 0 && final_loss <= w_.target_loss) {
      // Linear interpolation between the two checks that bracket the
      // target, so the result is not quantized to the check interval.
      const double f = std::isfinite(prev_loss) && prev_loss > final_loss
                           ? (prev_loss - w_.target_loss) / (prev_loss - final_loss)
                           : 1.0;
      iters_to_target = prev_iters + f * static_cast<double>(sys.iterations - prev_iters);
      clock_to_target = prev_clock + f * (train_clock - prev_clock);
    }
    prev_loss = final_loss;
    prev_clock = train_clock;
    prev_iters = sys.iterations;
  }
  const double quality_clock = train_clock;
  const double peak_rss = read_memory().peak_mb;

  // Throughput phase: more windows until the time budget is spent.
  const auto arena0 = tensor::arena::stats();
  const long iters0 = sys.iterations;
  const std::size_t min_timed = opt_.smoke ? 2 : 100;
  while (alive && (train_clock < budget || timed_intervals < min_timed)) {
    run_window(sys.iterations + window_iters);
  }
  const auto arena1 = tensor::arena::stats();
  const double timed_iters = static_cast<double>(sys.iterations - iters0);

  // This runs on shared virtual machines: windows during which the
  // hypervisor took more than kMaxSteal of the CPU time measure the host,
  // not the program, and are left out of the timing metrics. When fewer
  // than three windows stay under it, the least-stolen half is kept.
  constexpr double kMaxSteal = 0.02;
  std::vector<double> steal;
  for (const auto& win : windows) steal.push_back(win.steal);
  std::sort(steal.begin(), steal.end());
  const std::size_t clean = static_cast<std::size_t>(
      std::upper_bound(steal.begin(), steal.end(), kMaxSteal) - steal.begin());
  const std::size_t keep =
      std::min(steal.size(), std::max<std::size_t>(3, (steal.size() + 1) / 2));
  const double steal_cut = clean >= 3 ? kMaxSteal : steal[keep - 1];
  std::vector<double> window_sps, intervals;
  for (const auto& win : windows) {
    if (win.steal > steal_cut) continue;
    window_sps.push_back(win.sps);
    intervals.insert(intervals.end(), win.intervals.begin(), win.intervals.end());
  }
  const double sps = median(window_sps);

  std::printf("# set-up x%zu, quality phase %ld iterations (%.2f s), throughput "
              "phase %.0f iterations (%.2f s); timing uses %zu of %zu windows "
              "(CPU steal at most %.2f%%)\n",
              setup_s.size(), static_cast<long>(w_.quality_iters), quality_clock,
              timed_iters, train_clock - quality_clock, window_sps.size(),
              windows.size(), steal_cut * 100);
  std::printf("# samples_per_s quartiles: %.3f / %.3f / %.3f; windows:",
              quantile(window_sps, 0.25), sps, quantile(window_sps, 0.75));
  for (const auto& win : windows) std::printf(" %.1f", win.sps);
  std::printf("\n# target reached after %.1f iterations, %.3f s of training\n",
              iters_to_target, clock_to_target);

  std::printf("end-to-end metrics:\n");
  e2e_.add("samples_per_s", sps, "1/s");
  e2e_.add("iter_ms_p50", 1e3 * quantile(intervals, 0.5), "ms");
  e2e_.add("iter_ms_p90", 1e3 * quantile(intervals, 0.9), "ms");
  // The samples the reference needed to reach the target, at the measured
  // throughput: the raw training clock printed above also carries whatever
  // the host stole while it ran.
  const double iters_for_ttt =
      iters_to_target > 0 ? iters_to_target : static_cast<double>(w_.quality_iters);
  e2e_.add("time_to_target_s",
           iters_for_ttt * static_cast<double>(window_samples) / sps, "s");
  e2e_.add("eval_loss", final_loss, "nats");
  e2e_.add("setup_s", median(setup_s), "s");
  e2e_.add("peak_rss_mb", peak_rss, "MB");

  if (!opt_.smoke) {
    char detail[160];
    std::snprintf(detail, sizeof(detail), "held-out loss %.4f, ceiling %.3f",
                  final_loss, w_.loss_ceiling);
    check("eval_loss_below_ceiling",
          std::isfinite(final_loss) && final_loss < w_.loss_ceiling, detail);
    std::snprintf(detail, sizeof(detail), "target %.3f within %zu iterations",
                  w_.target_loss, w_.quality_iters);
    check("target_reached", iters_to_target > 0, detail);
  }
  if (w_.checkpoint_every > 0) {
    ckpt::TrainState state;
    const auto loaded = ckpt::CheckpointDir(sys.checkpoints->dir()).load_latest(&state);
    check("checkpoint_loads_clean",
          loaded.ok && loaded.fallbacks == 0 && loaded.step == sys.last_saved,
          "newest step " + std::to_string(loaded.step) + ", last saved " +
              std::to_string(sys.last_saved) + ", fallbacks " +
              std::to_string(loaded.fallbacks));
  }

  if (opt_.trace == 1 && alive) {
    std::printf("per-layer metrics:\n");
    const auto per_iter = [&](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a) / timed_iters;
    };
    layer_.add("tensor.arena_heap_allocs_per_iter",
               per_iter(arena0.heap_allocs, arena1.heap_allocs), "count");
    layer_.add("tensor.arena_acquires_per_iter",
               per_iter(arena0.acquires, arena1.acquires), "count");
    // RSS growth from the first quality-phase sample to the last sample.
    const Sample& a = rss.front();
    const Sample& b = rss.back();
    layer_.add("tensor.rss_growth_mb_per_kiter",
               b.iterations > a.iterations
                   ? (b.rss_mb - a.rss_mb) * 1e3 /
                         static_cast<double>(b.iterations - a.iterations)
                   : 0.0,
               "MB/kiter");
    layer_.add("setup.ctor_ms", median(ctor_ms), "ms");
    layer_.add("setup.first_iter_ms", median(first_ms), "ms");
    sys = System{};
    traced_pass(median(window_sps));
  }
  fs::remove_all(opt_.workdir);
  check("iterations_ok", alive && failed_ == 0,
        std::to_string(failed_) + " of " + std::to_string(attempted_) +
            " iterations failed (throw, detached pipeline or non-finite loss)");

  const Metrics& out = opt_.trace == 1 ? layer_ : e2e_;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct_ ? "true" : "false", attempted_, failed_, out.json().c_str());
  return correct_ ? 0 : 1;
}

void Bench::traced_pass(double untraced_sps) {
  trace::Tracer tracer;
  System sys = make_system(&tracer, "traced");
  bool alive = true;
  for (std::size_t j = 0; alive && j < w_.window_iters; ++j) alive = train(sys);
  if (!alive) return;
  sys.pipe->synchronize();  // no apply in flight across the window start
  tracer.clear();

  const double trace_budget = opt_.smoke ? 0.0 : 0.25 * opt_.seconds;
  const double t0 = tracer.wall_now();
  const long iters0 = sys.iterations;
  std::vector<double> window_sps;
  double elapsed = 0;
  while (elapsed < trace_budget || window_sps.size() < 3) {
    const auto w0 = Clock::now();
    for (std::size_t j = 0; alive && j < w_.window_iters; ++j) alive = train(sys);
    if (!alive) return;
    const double window = seconds_since(w0);
    elapsed += window;
    window_sps.push_back(
        static_cast<double>(w_.window_iters * w_.batch * kPipelines) / window);
  }
  const double t1 = tracer.wall_now();
  const auto iterations = static_cast<std::size_t>(sys.iterations - iters0);
  const trace::TraceAnalysis analysis(tracer.collect());
  const std::size_t stages = w_.boundaries.size() + 1;
  const Breakdown bd = attribute(analysis, t0, t1, iterations, kPipelines, stages);
  const double iters = static_cast<double>(iterations);

  double flops = 0, parks = 0, spins = 0;
  for (std::size_t s = 0; s < stages; ++s) {
    flops += analysis.counter_sum(s, trace::CounterId::kFlops);
    parks += analysis.counter_sum(s, trace::CounterId::kParkCount);
    spins += analysis.counter_sum(s, trace::CounterId::kSpinCount);
  }
  double pull_s = 0, apply_s = 0, pulls = 0;
  for (const auto& ev : analysis.events()) {
    const double b = std::max(ev.t_begin, t0), e = std::min(ev.t_end, t1);
    if (ev.kind == trace::EventKind::kElasticPull) {
      pull_s += e - b;
      pulls += 1;
    } else if (ev.kind == trace::EventKind::kReferenceApply && e > b) {
      apply_s += e - b;
    }
  }
  // With the codec off the program emits no byte counters, so the bytes are
  // counted from the pulls seen: each reads the f64 broadcast and pushes an
  // f64 update of every parameter.
  double param_bytes = 0;
  for (const auto& p : sys.pipe->replica_snapshot(0)) {
    param_bytes += static_cast<double>(p.numel() * sizeof(tensor::Scalar));
  }
  const double sync_bytes = analysis.sync_bytes() > 0
                                ? static_cast<double>(analysis.sync_bytes())
                                : pulls * 2.0 * param_bytes;
  double ckpt_s = 0;
  for (const auto& ev : analysis.checkpoint_events()) {
    ckpt_s += std::min(ev.t_end, t1) - std::max(ev.t_begin, t0);
  }

  layer_.add("tensor.flops_per_iter", flops / iters, "count");
  for (std::size_t s = 0; s < stages; ++s) {
    const std::string k = ".s" + std::to_string(s);
    layer_.add("runtime.busy_frac" + k, bd.busy_frac[s], "frac");
    layer_.add("runtime.bubble_frac" + k, bd.bubble_frac[s], "frac");
    layer_.add("runtime.gflops" + k, bd.gflops[s], "GF/s");
  }
  layer_.add("runtime.parks_per_iter", parks / iters, "count");
  layer_.add("runtime.spins_per_iter", spins / iters, "count");
  layer_.add("core.pull_span_ms_per_iter",
             1e3 * pull_s / iters / static_cast<double>(kPipelines), "ms");
  layer_.add("core.apply_span_ms_per_iter", 1e3 * apply_s / iters, "ms");
  layer_.add("core.sync_bytes_per_iter", sync_bytes / iters, "B");
  layer_.add("core.mean_sync_batch", analysis.mean_sync_batch(), "count");
  const std::size_t lag_samples = analysis.counter_count(0, trace::CounterId::kSyncLag);
  layer_.add("core.sync_lag_mean",
             lag_samples > 0 ? analysis.counter_sum(0, trace::CounterId::kSyncLag) /
                                   static_cast<double>(lag_samples)
                             : 0.0,
             "count");
  layer_.add("ckpt.stall_frac", ckpt_s / (t1 - t0), "frac");
  layer_.add("trace.overhead_frac", 1.0 - median(window_sps) / untraced_sps, "frac");

  layer_.add("breakdown.iter_ms", bd.iter_ms, "ms");
  layer_.add("breakdown.compute_ms", bd.compute_ms, "ms");
  layer_.add("breakdown.bubble_ms", bd.bubble_ms, "ms");
  layer_.add("breakdown.comm_wait_ms", bd.comm_wait_ms, "ms");
  layer_.add("breakdown.local_sync_ms", bd.local_sync_ms, "ms");
  layer_.add("breakdown.reference_apply_ms", bd.reference_apply_ms, "ms");
  layer_.add("breakdown.checkpoint_ms", bd.checkpoint_ms, "ms");
  layer_.add("breakdown.unattributed_ms", bd.unattributed_ms, "ms");
  char detail[128];
  std::snprintf(detail, sizeof(detail), "rows %.6f ms vs traced %.6f ms/iter",
                bd.rows_sum(), bd.iter_ms);
  check("breakdown_sums_to_iter_ms",
        std::abs(bd.rows_sum() - bd.iter_ms) <= 1e-9 * bd.iter_ms + 1e-12, detail);

  const CheckpointProbe cp =
      probe_checkpoint(*sys.pipe, opt_.workdir + "/probe", opt_.smoke ? 2 : 5);
  layer_.add("ckpt.capture_ms", cp.capture_ms, "ms");
  layer_.add("ckpt.commit_ms", cp.commit_ms, "ms");
  layer_.add("ckpt.bytes", cp.bytes, "B");
  sys = System{};

  const LayerProbe lp = probe_layers(
      w_, in_.train.front(), stage_workers_from_env(kPipelines * stages));
  layer_.add("tensor.gemm_gflops", lp.gemm_gflops, "GF/s");
  layer_.add("tensor.gemm_peak_frac", lp.gemm_gflops / lp.gemm_peak_gflops, "frac");
  layer_.add("nn.fwd_bwd_ms", lp.fwd_bwd_ms, "ms");
  layer_.add("nn.op_overhead_frac", 1.0 - lp.gemm_ms / lp.fwd_bwd_ms, "frac");
  layer_.add("optim.step_ms", lp.optim_step_ms, "ms");
  layer_.add("core.local_sync_ms", lp.local_sync_ms, "ms");
  layer_.add("core.apply_ms", lp.apply_ms, "ms");
  if (lp.stage_flops != lp.declared_flops) {
    std::printf("# note: stage 0 counted %.0f FLOPs, the declared GEMM shapes "
                "%.0f; nn.op_overhead_frac uses the declared shapes\n",
                lp.stage_flops, lp.declared_flops);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse_args(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: avgbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>] [--smoke]\n");
    return 2;
  }
  try {
    perfbench::pin_environment();
    perfbench::Workload w = perfbench::make_workload(opt.workload, opt.seed, opt.smoke);
    return perfbench::Bench(opt, std::move(w)).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avgbench: %s\n", e.what());
    return 3;
  }
}
