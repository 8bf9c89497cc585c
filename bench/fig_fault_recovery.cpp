/// \file fig_fault_recovery.cpp
/// Throughput/utilization timeline around a mid-training pipeline crash and
/// rejoin — the resilience companion to fig13/fig16. Two parts:
///
///  1. Simulator: GNMT under AvgPipe (2 pipelines), one pipeline crashed at
///     25 % of the healthy makespan and rejoined at 50 % (re-sync cost 5 %).
///     The per-GPU utilization sparklines show the trough the dead pipeline
///     leaves and the recovery; TraceAnalysis::recoveries() reports the
///     crash->rejoin latency. Expected shape: the faulted run's makespan
///     stretches by roughly the dead window (the survivor keeps its own
///     throughput — no barrier couples it to the dead peer), and utilization
///     returns to the healthy level after the rejoin.
///
///  2. Threaded runtime: a small MLP trained by core::AvgPipe while the fault
///     plan detaches pipeline 1 for a few driver steps. Loss stays finite
///     throughout, α rebalances 1/N -> 1/(N-1) -> 1/N, and the trace records
///     the same crash/rejoin events as the simulator.
///
/// `--faults plan.json` replaces the built-in crash scenario for part 1;
/// `--trace out.json` dumps the faulted simulation's events as Chrome trace
/// JSON.
///
/// Chaos soak mode (`--soak=N [--seed=S] [--json=PATH]`): replaces both
/// parts with N randomized kill/restore cycles against a durably
/// checkpointed core::AvgPipe — mid-batch worker kills at random (pipeline,
/// stage, micro-batch) crash points, periodic checkpoints, and periodic
/// bit-flip/truncation corruption of the newest checkpoint file. The run
/// *gates* on invariants (finite losses, every pipeline re-attached every
/// round, clean happens-before replay, the directory still restores at the
/// end) and exits 2 on any violation; recovery-latency / lost-work /
/// checkpoint-overhead metrics go to stdout and, with `--json`, to
/// BENCH_recovery.json (baseline: bench/baselines/). `--keep-dir=PATH`
/// checkpoints into PATH and leaves it behind for post-mortem inspection.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ckpt/checkpoint.hpp"
#include "common/rng.hpp"
#include "core/avgpipe.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "trace/happens_before.hpp"

using namespace avgpipe;

namespace {

/// Sparkline of GPU `stage` utilization over the run, with a marker row for
/// the crash/rejoin instants.
void print_timeline(const bench::SystemResult& r, std::size_t stage,
                    std::size_t bins) {
  const Seconds end = r.analysis.span_end();
  std::printf("  GPU %zu |%s|\n", stage,
              bench::sparkline(r.analysis.utilization(stage), 0, end, bins)
                  .c_str());
  const auto recs = r.analysis.recoveries();
  if (recs.empty()) return;
  std::string markers(bins, ' ');
  for (const auto& rec : recs) {
    const auto at = [&](Seconds t) {
      return std::min(bins - 1, static_cast<std::size_t>(
                                    t / end * static_cast<double>(bins)));
    };
    markers[at(rec.t_crash)] = 'C';
    if (rec.rejoined) markers[at(rec.t_rejoin)] = 'R';
  }
  std::printf("        |%s|  (C = crash, R = rejoin)\n", markers.c_str());
}

void simulated_recovery(const fault::FaultPlan* cli_plan,
                        const std::string& trace_path) {
  const auto w = workloads::gnmt_profile();
  std::printf("== Fault recovery — GNMT, AvgPipe 2x64, simulator ==\n\n");

  // Healthy reference run; its makespan anchors the built-in crash window.
  const auto healthy =
      bench::run_system(w, "healthy", schedule::Kind::kAdvanceForward, 64, 2,
                        true, 0, 0.0, /*num_batches=*/8);

  fault::FaultPlan plan;
  if (cli_plan != nullptr) {
    plan = *cli_plan;
  } else {
    fault::PipelineCrash crash;
    crash.pipeline = 1;
    crash.t_crash = healthy.sim.makespan * 0.25;
    crash.t_rejoin = healthy.sim.makespan * 0.50;
    crash.resync_seconds = healthy.sim.makespan * 0.05;
    plan.crashes.push_back(crash);
  }
  const auto faulted =
      bench::run_system(w, "crash+rejoin", schedule::Kind::kAdvanceForward, 64,
                        2, true, 0, 0.0, /*num_batches=*/8, &plan);

  Table table({"run", "makespan", "time/batch", "mean util", "peak util"});
  for (const auto* r : {&healthy, &faulted}) {
    table.row()
        .cell(r->name)
        .cell(format_seconds(r->sim.makespan))
        .cell(format_seconds(r->sim.time_per_batch))
        .cell(format_percent(r->analysis.mean_utilization()))
        .cell(format_percent(r->analysis.peak_utilization()));
  }
  table.print();
  std::printf("slowdown vs healthy: %.1f%%\n\n",
              (faulted.sim.makespan / healthy.sim.makespan - 1.0) * 100.0);

  std::printf("utilization timeline (full run, 8-level sparkline):\n");
  for (std::size_t g = 0; g < faulted.analysis.num_stages(); ++g) {
    print_timeline(faulted, g, 64);
  }
  std::printf("\n");

  for (const auto& rec : faulted.analysis.recoveries()) {
    if (rec.rejoined) {
      std::printf("pipeline %u: crashed at %s, rejoined at %s — recovery "
                  "latency %s (incl. re-sync)\n",
                  rec.pipeline, format_seconds(rec.t_crash).c_str(),
                  format_seconds(rec.t_rejoin).c_str(),
                  format_seconds(rec.latency).c_str());
    } else {
      std::printf("pipeline %u: crashed at %s and never rejoined\n",
                  rec.pipeline, format_seconds(rec.t_crash).c_str());
    }
  }
  bench::maybe_dump_trace(faulted.analysis, trace_path);
  std::printf("\n");
}

void threaded_recovery() {
  std::printf("== Fault recovery — threaded core::AvgPipe, MLP ==\n\n");
  data::SyntheticFeatures ds(128, 6, 2, 5, /*noise=*/0.15);
  data::DataLoader loader(ds, 16, 3);

  // Detach pipeline 1 before step 3, bring it back before step 6.
  fault::FaultPlan plan;
  fault::PipelineCrash crash;
  crash.pipeline = 1;
  crash.crash_at_step = 3;
  crash.rejoin_at_step = 6;
  plan.crashes.push_back(crash);

  trace::Tracer tracer;
  core::AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 4;
  config.boundaries = {3};
  config.tracer = &tracer;
  config.faults = &plan;
  core::AvgPipe system(
      [](std::uint64_t seed) { return nn::make_mlp(6, 12, 2, 2, seed); },
      [](std::vector<tensor::Variable> params) {
        return std::make_unique<optim::Sgd>(std::move(params), 0.3);
      },
      config);

  std::printf("step  loss     alive  alpha\n");
  for (std::size_t step = 0; step < 9; ++step) {
    const std::size_t epoch = step / 4, i = (step % 4) * 2;
    const double loss = system.train_iteration(
        {loader.batch(epoch, i), loader.batch(epoch, i + 1)});
    std::printf("%4zu  %.5f  %zu      %.3f\n", step, loss,
                system.alive_pipelines(), system.alpha());
  }

  const trace::TraceAnalysis analysis(tracer.collect());
  for (const auto& rec : analysis.recoveries()) {
    std::printf("\npipeline %u: detached for %s of wall time, %s\n",
                rec.pipeline, format_seconds(rec.latency).c_str(),
                rec.rejoined ? "rejoined from the reference weights"
                             : "never rejoined");
  }
}

// -- chaos soak (--soak=N) ----------------------------------------------------

/// Invariant gate: accumulate human-readable failures; any entry fails the
/// soak (exit 2) after the full report prints.
struct SoakGate {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// \param keep_dir when non-empty, use (and keep) this checkpoint directory
///        instead of a throwaway mkdtemp one — CI's corrupted-checkpoint
///        negative control points ckpt_inspect at what the soak left behind.
int chaos_soak(std::size_t cycles, std::uint64_t seed,
               const std::string& json_path, const std::string& keep_dir) {
  if (cycles < 8) cycles = 8;  // need room for checkpoints + corruption
  std::printf("== Chaos soak — %zu randomized kill/restore cycles, seed %llu "
              "==\n\n",
              cycles, static_cast<unsigned long long>(seed));

  // Seeded kill plan: one mid-batch worker kill every 3 driver steps at a
  // random (pipeline, stage, micro-batch) crash point. A restored pipeline's
  // fresh runtime restarts its internal step counter, so kill records can
  // legitimately re-fire — extra chaos, deliberately kept.
  Rng chaos(seed);
  fault::FaultPlan plan;
  for (long step = 2; step < static_cast<long>(cycles); step += 3) {
    fault::WorkerKill kill;
    kill.pipeline = static_cast<int>(chaos.uniform_int(0, 1));
    kill.stage = chaos.bernoulli(0.5)
                     ? fault::kAny
                     : static_cast<int>(chaos.uniform_int(0, 1));
    kill.step = step;
    kill.micro_batch = chaos.bernoulli(0.5)
                           ? fault::kAny
                           : static_cast<int>(chaos.uniform_int(0, 2));
    plan.kills.push_back(kill);
  }

  std::string ckpt_dir = keep_dir;
  if (ckpt_dir.empty()) {
    std::string tmpl = "/tmp/avgpipe_soak_bench_XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed for checkpoint dir\n");
      return 1;
    }
    ckpt_dir = tmpl;
  }

  SoakGate gate;
  std::size_t corruptions = 0;
  std::vector<trace::TraceEvent> events;
  ckpt::CheckpointDir::LoadResult final_restore;
  const auto wall_begin = std::chrono::steady_clock::now();
  {
    ckpt::CheckpointDir ckpts(ckpt_dir);
    trace::Tracer tracer;
    core::AvgPipeConfig cfg;
    cfg.num_pipelines = 2;
    cfg.micro_batches = 3;
    cfg.boundaries = {2};
    cfg.checkpoints = &ckpts;
    cfg.restore_on_failure = true;
    cfg.faults = &plan;
    cfg.tracer = &tracer;
    core::AvgPipe system(
        [](std::uint64_t s) { return nn::make_mlp(6, 8, 2, 2, s); },
        [](std::vector<tensor::Variable> params) {
          return std::make_unique<optim::Sgd>(std::move(params), 0.1);
        },
        cfg);

    data::SyntheticFeatures ds(64, 6, 2, 3);
    data::DataLoader loader(ds, 12, 1);

    for (std::size_t iter = 0; iter < cycles; ++iter) {
      double loss = 0.0;
      try {
        loss = system.train_iteration(
            {loader.batch(iter, 0), loader.batch(iter, 1)});
      } catch (const std::exception& e) {
        gate.require(false, "cycle " + std::to_string(iter) +
                                ": train_iteration threw: " + e.what());
        break;
      }
      gate.require(std::isfinite(loss),
                   "cycle " + std::to_string(iter) + ": non-finite loss");
      gate.require(system.alive_pipelines() == 2,
                   "cycle " + std::to_string(iter) +
                       ": a killed pipeline was not re-attached");
      if (iter % 4 == 3) system.save_checkpoint();
      if (iter % 9 == 8 && !ckpts.entries().empty()) {
        // Corrupt the newest committed checkpoint — bit flip or torn write.
        const std::string victim =
            ckpt_dir + "/" + ckpts.entries().back().file;
        if (chaos.bernoulli(0.5)) {
          ckpt::flip_bit(victim, static_cast<std::uint64_t>(chaos.uniform_int(
                                     0, (1 << 20) - 1)));
        } else {
          ckpt::truncate_file(victim, ckpt::file_size(victim) / 2);
        }
        ++corruptions;
      }
    }
    system.synchronize();

    ckpt::TrainState state;
    final_restore = ckpts.load_latest(&state);
    gate.require(final_restore.ok,
                 "final load_latest failed: " + final_restore.error);
    events = tracer.collect();
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();

  if (keep_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir, ec);
  }

  const trace::TraceAnalysis analysis(events);
  const auto episodes = analysis.recoveries();
  gate.require(!episodes.empty(), "no kill ever fired — soak was a no-op");
  double latency_sum = 0.0, latency_max = 0.0;
  std::size_t rejoined = 0;
  for (const auto& r : episodes) {
    if (r.rejoined) ++rejoined;
    latency_sum += r.latency;
    latency_max = std::max(latency_max, r.latency);
    gate.require(r.rejoined, "pipeline " + std::to_string(r.pipeline) +
                                 " crashed and never re-attached");
  }

  // Restore split: a kRestore span's batch is the checkpoint step it loaded,
  // or -1 when no checkpoint was loadable and the pipeline fell back to a
  // broadcast rejoin from the live reference model. Its value counts the
  // manifest entries skipped over corruption on the way to a loadable one.
  const auto restores = analysis.restore_events();
  std::size_t durable = 0, broadcast = 0, manifest_fallbacks = 0;
  for (const auto& ev : restores) {
    if (ev.batch >= 0) {
      ++durable;
    } else {
      ++broadcast;
    }
    manifest_fallbacks += static_cast<std::size_t>(std::max(0.0, ev.value));
  }

  const trace::HbReport hb = trace::check_happens_before(events);
  {
    std::string details;
    for (const auto& v : hb.violations) details += "\n    " + v.what;
    gate.require(hb.ok, "happens-before replay: " + hb.summary() + details);
  }

  const std::size_t ckpt_count = analysis.checkpoint_events().size();
  gate.require(ckpt_count == cycles / 4, "checkpoint count mismatch");
  gate.require(corruptions > 0, "no corruption was ever injected");

  Table table({"metric", "value"});
  const auto row = [&table](const std::string& k, const std::string& v) {
    table.row().cell(k).cell(v);
  };
  row("cycles", std::to_string(cycles));
  row("worker kills fired", std::to_string(episodes.size()));
  row("recoveries (rejoined)", std::to_string(rejoined));
  row("mean recovery latency",
      format_seconds(episodes.empty() ? 0.0
                                      : latency_sum /
                                            static_cast<double>(
                                                episodes.size())));
  row("max recovery latency", format_seconds(latency_max));
  row("restores from checkpoint", std::to_string(durable));
  row("broadcast fallbacks", std::to_string(broadcast));
  row("manifest fallbacks", std::to_string(manifest_fallbacks));
  row("checkpoints committed", std::to_string(ckpt_count));
  row("checkpoint bytes",
      std::to_string(analysis.checkpoint_bytes()));
  row("checkpoint capture time", format_seconds(analysis.checkpoint_time()));
  row("checkpoint commit time",
      format_seconds(analysis.checkpoint_commit_time()));
  row("corruptions injected", std::to_string(corruptions));
  // Lost work: each kill aborts the victim pipeline's in-flight round (its
  // micro-batches re-run after restore, the survivors' work is kept).
  row("lost pipeline-rounds", std::to_string(episodes.size()));
  row("wall time", format_seconds(wall_seconds));
  table.print();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    const char* b = "  ";
    const auto jb = [](bool v) { return v ? "true" : "false"; };
    out << "{\n";
    out << b << "\"schema\": \"avgpipe-recovery-soak-v1\",\n";
    out << b << "\"spec\": {\"cycles\": " << cycles << ", \"seed\": " << seed
        << ", \"pipelines\": 2, \"micro_batches\": 3, "
        << "\"checkpoint_every\": 4, \"corrupt_every\": 9},\n";
    out << b << "\"invariants\": {\"violations\": " << gate.failures.size()
        << ", \"all_rejoined\": " << jb(rejoined == episodes.size())
        << ", \"hb_clean\": " << jb(hb.ok)
        << ", \"final_restore_ok\": " << jb(final_restore.ok) << "},\n";
    out << b << "\"recovery\": {\"kills\": " << episodes.size()
        << ", \"rejoined\": " << rejoined << ", \"mean_latency_s\": "
        << (episodes.empty()
                ? 0.0
                : latency_sum / static_cast<double>(episodes.size()))
        << ", \"max_latency_s\": " << latency_max << "},\n";
    out << b << "\"restore\": {\"from_checkpoint\": " << durable
        << ", \"broadcast_fallbacks\": " << broadcast
        << ", \"manifest_fallbacks\": " << manifest_fallbacks << "},\n";
    out << b << "\"checkpoint\": {\"count\": " << ckpt_count
        << ", \"bytes\": " << analysis.checkpoint_bytes()
        << ", \"capture_seconds\": " << analysis.checkpoint_time()
        << ", \"commit_seconds\": " << analysis.checkpoint_commit_time()
        << ", \"corruptions_injected\": " << corruptions << "},\n";
    out << b << "\"lost_work\": {\"pipeline_rounds\": " << episodes.size()
        << ", \"micro_batches\": " << episodes.size() * 3 << "},\n";
    out << b << "\"wall_seconds\": " << wall_seconds << "\n";
    out << "}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!gate.failures.empty()) {
    std::fprintf(stderr, "\nSOAK FAILED — %zu invariant violation(s):\n",
                 gate.failures.size());
    for (const auto& f : gate.failures) {
      std::fprintf(stderr, "  - %s\n", f.c_str());
    }
    return 2;
  }
  std::printf("\nsoak OK — all invariants held across %zu cycles\n", cycles);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  long soak = -1;
  std::uint64_t seed = 20260809;
  std::string json_path, keep_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--soak=", 7) == 0) {
      soak = std::atol(argv[i] + 7);
    } else if (std::strcmp(argv[i], "--soak") == 0) {
      soak = 100;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--keep-dir=", 11) == 0) {
      keep_dir = argv[i] + 11;
    }
  }
  if (soak >= 0) {
    return chaos_soak(static_cast<std::size_t>(soak), seed, json_path,
                      keep_dir);
  }

  const std::string trace_path = bench::trace_path_from_args(argc, argv);
  const auto faults = bench::faults_from_args(argc, argv);
  simulated_recovery(faults.get(), trace_path);
  threaded_recovery();
  return 0;
}
