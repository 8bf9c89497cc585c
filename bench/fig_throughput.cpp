/// \file fig_throughput.cpp
/// End-to-end throughput of the threaded runtime: steps/s and per-stage idle
/// fraction across {AFAB, 1F1B, AFP} x {sync, async} elastic sync. Two
/// workloads:
///
///   * the original toy MLP (hidden=32), kept for continuity with the v1
///     baseline numbers, and
///   * an optional *calibrated* workload (`--calibrate[=target_ms]`) that
///     scales the MLP hidden width until one stage's work on one micro-batch
///     costs at least `target_ms` of compute. The toy model's stage step is
///     tens of microseconds, which measures channel overhead rather than
///     pipeline overlap; the calibrated model is compute-bound, which is the
///     regime the schedules are designed for.
///
/// Machine-readable output for the perf-smoke CI job:
///
///   fig_throughput --json=BENCH_runtime.json [--iters=N] [--repeats=R]
///                  [--calibrate[=target_ms]]
///
/// Timing runs are untraced (tracing perturbs the hot path); a separate
/// traced run derives per-stage idle fractions, achieved GFLOP/s, park/spin
/// counts and elastic-sync batch sizes via TraceAnalysis. Wall-clock on a
/// shared machine is noisy, so each configuration reports the best of R
/// repeats — noise only ever slows a run down.
///
/// Exit code is non-zero only on hard correctness failures (non-finite loss,
/// sync/async loss-trajectory divergence); perf deltas against the checked-in
/// baseline are warnings, following the kernel-bench policy.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/affinity.hpp"
#include "common/thread_pool.hpp"
#include "core/avgpipe.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "optim/optimizer.hpp"
#include "tensor/ops.hpp"
#include "trace/analysis.hpp"

namespace {

using namespace avgpipe;

// Bench topology: 2 pipelines x 3 stages (boundaries {2,4}), 8 micro-batches.
constexpr std::size_t kNumPipelines = 2;
constexpr std::size_t kNumStages = 3;
constexpr std::size_t kMicroBatches = 8;

struct BenchConfig {
  schedule::Kind kind = schedule::Kind::kAdvanceForward;
  bool async_sync = false;
  std::size_t sync_lag = 1;
  const char* schedule_name = "afp";
};

struct BenchResult {
  std::string schedule;
  std::string mode;
  double iters_per_sec = 0;
  double ms_per_iter = 0;
  double final_loss = 0;
  std::vector<double> idle_fraction;  // per stage
  std::vector<double> gflops;         // per stage, achieved over busy time
  double parks = 0;                   // channel condvar parks, all stages
  double spins = 0;                   // channel spin-window entries
  double mean_sync_batch = 0;         // mean fused elastic-apply batch size
};

struct Calibration {
  bool enabled = false;
  double target_stage_ms = 2.0;
  std::size_t hidden = 32;
  double measured_stage_ms = 0;
  bool reached_target = false;
};

core::AvgPipe make_system(const BenchConfig& cfg, std::size_t hidden,
                          trace::Tracer* tracer,
                          core::SyncCompression compression = {}) {
  core::AvgPipeConfig config;
  config.num_pipelines = kNumPipelines;
  config.micro_batches = kMicroBatches;
  config.boundaries = {2, 4};
  config.kind = cfg.kind;
  config.advance_num = cfg.kind == schedule::Kind::kAdvanceForward ? 3 : 0;
  config.async_sync = cfg.async_sync;
  config.sync_lag = cfg.sync_lag;
  config.tracer = tracer;
  // Pinned (even when off): bench rows must not depend on the environment.
  config.sync_compression = compression;
  return core::AvgPipe(
      [hidden](std::uint64_t seed) {
        return nn::make_mlp(16, hidden, 4, 6, seed);
      },
      [](std::vector<tensor::Variable> p) {
        return std::make_unique<optim::Sgd>(std::move(p), 0.05);
      },
      config);
}

/// One stage's compute per micro-batch at the given width, in milliseconds:
/// full-model forward+backward on a full batch, divided by stages x
/// micro-batches. Best of three timed passes (noise only slows a run down).
double measure_stage_step_ms(std::size_t hidden, const data::Batch& batch) {
  nn::Sequential model = nn::make_mlp(16, hidden, 4, 6, 1234);
  auto pass = [&] {
    tensor::Variable in(batch.inputs.clone(), /*requires_grad=*/false);
    tensor::Variable out = model.forward(in);
    tensor::Variable loss = tensor::softmax_cross_entropy(out, batch.targets);
    loss.backward();
    for (auto& p : model.parameters()) p.mutable_grad().fill_(0.0);
  };
  pass();  // warm (allocations, pool spin-up)
  double best_ms = 1e300;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    best_ms = std::min(best_ms, ms);
  }
  return best_ms / static_cast<double>(kNumStages * kMicroBatches);
}

/// Scale the hidden width until one stage-step costs >= target_ms of
/// compute. Reports honestly when even the widest sweep point falls short
/// (the JSON records `reached_target` and CI treats perf as warn-only).
Calibration calibrate(double target_ms, const data::Batch& batch) {
  Calibration cal;
  cal.enabled = true;
  cal.target_stage_ms = target_ms;
  const std::size_t widths[] = {32, 64, 96, 128, 192, 256, 384, 512, 768, 1024};
  for (const std::size_t h : widths) {
    cal.hidden = h;
    cal.measured_stage_ms = measure_stage_step_ms(h, batch);
    if (cal.measured_stage_ms >= target_ms) {
      cal.reached_target = true;
      break;
    }
  }
  return cal;
}

BenchResult run_config(const BenchConfig& cfg, std::size_t hidden,
                       data::DataLoader& loader, std::size_t iters,
                       std::size_t repeats, std::size_t traced_iters) {
  BenchResult res;
  res.schedule = cfg.schedule_name;
  res.mode = cfg.async_sync ? "async" : "sync";
  auto batches_at = [&](std::size_t i) {
    return std::vector<data::Batch>{loader.batch(0, i % 5),
                                    loader.batch(0, (i + 1) % 5)};
  };

  // Untraced timing: best of `repeats` back-to-back measurement windows on
  // one system (steady state; the first window doubles as warmup validation).
  {
    core::AvgPipe system = make_system(cfg, hidden, nullptr);
    for (std::size_t i = 0; i < 5; ++i) system.train_iteration(batches_at(i));
    double best = 0;
    for (std::size_t r = 0; r < repeats; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < iters; ++i) {
        res.final_loss = system.train_iteration(batches_at(i));
      }
      system.synchronize();
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      best = std::max(best, static_cast<double>(iters) / secs);
    }
    res.iters_per_sec = best;
    res.ms_per_iter = 1e3 / best;
  }

  // Traced run for per-stage idle fractions and the perf-counter layer.
  {
    trace::Tracer tracer;
    core::AvgPipe system = make_system(cfg, hidden, &tracer);
    for (std::size_t i = 0; i < 5; ++i) system.train_iteration(batches_at(i));
    tracer.clear();
    for (std::size_t i = 0; i < traced_iters; ++i) {
      system.train_iteration(batches_at(i));
    }
    system.synchronize();
    trace::TraceAnalysis analysis(tracer.collect());
    for (std::size_t s = 0; s < analysis.num_stages(); ++s) {
      res.idle_fraction.push_back(analysis.idle_fraction(s));
      res.gflops.push_back(analysis.achieved_gflops(s));
      res.parks += analysis.counter_sum(s, trace::CounterId::kParkCount);
      res.spins += analysis.counter_sum(s, trace::CounterId::kSpinCount);
    }
    res.mean_sync_batch = analysis.mean_sync_batch();
  }
  return res;
}

std::vector<BenchResult> run_suite(const std::vector<BenchConfig>& configs,
                                   std::size_t hidden,
                                   data::DataLoader& loader, std::size_t iters,
                                   std::size_t repeats,
                                   std::size_t traced_iters,
                                   bool* correctness_ok) {
  std::vector<BenchResult> results;
  for (const auto& cfg : configs) {
    results.push_back(
        run_config(cfg, hidden, loader, iters, repeats, traced_iters));
    const auto& r = results.back();
    std::string idle;
    char buf[32];
    for (double f : r.idle_fraction) {
      std::snprintf(buf, sizeof(buf), " %.2f", f);
      idle += buf;
    }
    double gf = 0;
    for (double g : r.gflops) gf = std::max(gf, g);
    std::printf(
        "%-5s %-5s %8.1f iters/s  %7.3f ms/iter  loss %.4f  idle%s"
        "  %5.2f GF/s  batch %.2f\n",
        r.schedule.c_str(), r.mode.c_str(), r.iters_per_sec, r.ms_per_iter,
        r.final_loss, idle.c_str(), gf, r.mean_sync_batch);
    if (!std::isfinite(r.final_loss)) {
      std::fprintf(stderr, "FAIL %s/%s: non-finite loss\n",
                   r.schedule.c_str(), r.mode.c_str());
      *correctness_ok = false;
    }
  }
  return results;
}

// -- quantized sync transport -------------------------------------------------

struct CompressionResult {
  std::string codec;          ///< "off" / "fp16" / "int8"
  double iters_per_sec = 0;
  double final_loss = 0;
  double wire_bytes_per_iter = 0;  ///< post-codec sync bytes moved per round
  double raw_bytes_per_iter = 0;   ///< pre-codec (f64) bytes per round
  double ratio = 1.0;              ///< raw / wire (1.0 when off)
};

/// Throughput and bytes-moved of the afp/async toy system under each sync
/// codec. The off row is the control: same config, raw f64 transport.
CompressionResult run_compression(tensor::Codec codec,
                                  data::DataLoader& loader, std::size_t iters,
                                  std::size_t repeats) {
  const BenchConfig cfg = {schedule::Kind::kAdvanceForward, true, 1, "afp"};
  core::SyncCompression compression;
  compression.codec = codec;
  CompressionResult res;
  res.codec = tensor::to_string(codec);
  auto batches_at = [&](std::size_t i) {
    return std::vector<data::Batch>{loader.batch(0, i % 5),
                                    loader.batch(0, (i + 1) % 5)};
  };

  {  // untraced timing, same discipline as run_config
    core::AvgPipe system = make_system(cfg, 32, nullptr, compression);
    for (std::size_t i = 0; i < 5; ++i) system.train_iteration(batches_at(i));
    double best = 0;
    for (std::size_t r = 0; r < repeats; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < iters; ++i) {
        res.final_loss = system.train_iteration(batches_at(i));
      }
      system.synchronize();
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      best = std::max(best, static_cast<double>(iters) / secs);
    }
    res.iters_per_sec = best;
  }

  if (codec != tensor::Codec::kNone) {  // traced run for the byte counters
    trace::Tracer tracer;
    core::AvgPipe system = make_system(cfg, 32, &tracer, compression);
    const std::size_t traced_iters = 10;
    for (std::size_t i = 0; i < traced_iters; ++i) {
      system.train_iteration(batches_at(i));
    }
    system.synchronize();
    trace::TraceAnalysis analysis(tracer.collect());
    res.wire_bytes_per_iter = static_cast<double>(analysis.sync_bytes()) /
                              static_cast<double>(traced_iters);
    res.raw_bytes_per_iter = static_cast<double>(analysis.sync_bytes_raw()) /
                             static_cast<double>(traced_iters);
    res.ratio = analysis.compression_ratio();
  }
  return res;
}

/// Max |loss(sync) - loss(async)| across adjacent config pairs. At lag 0 the
/// trajectories are bit-identical (tests/elastic_test.cpp asserts that); the
/// tolerance here absorbs sync_lag-1 staleness.
double parity_delta_of(const std::vector<BenchResult>& results) {
  double parity_delta = 0;
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    parity_delta = std::max(
        parity_delta,
        std::fabs(results[i].final_loss - results[i + 1].final_loss));
  }
  return parity_delta;
}

double iters_of(const std::vector<BenchResult>& results,
                const char* schedule, const char* mode) {
  for (const auto& r : results) {
    if (r.schedule == schedule && r.mode == mode) return r.iters_per_sec;
  }
  return 0;
}

void write_systems(std::ofstream& out, const char* key,
                   const std::vector<BenchResult>& results) {
  out << "  \"" << key << "\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"schedule\": \"" << r.schedule << "\", \"mode\": \""
        << r.mode << "\", \"iters_per_sec\": " << r.iters_per_sec
        << ", \"ms_per_iter\": " << r.ms_per_iter
        << ", \"final_loss\": " << r.final_loss << ", \"idle_fraction\": [";
    for (std::size_t s = 0; s < r.idle_fraction.size(); ++s) {
      out << (s > 0 ? ", " : "") << r.idle_fraction[s];
    }
    out << "], \"gflops\": [";
    for (std::size_t s = 0; s < r.gflops.size(); ++s) {
      out << (s > 0 ? ", " : "") << r.gflops[s];
    }
    out << "], \"parks\": " << r.parks << ", \"spins\": " << r.spins
        << ", \"mean_sync_batch\": " << r.mean_sync_batch << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::size_t iters = 40;
  std::size_t repeats = 3;
  bool do_calibrate = false;
  double target_ms = 2.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      iters = static_cast<std::size_t>(std::atol(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--repeats=", 10) == 0) {
      repeats = static_cast<std::size_t>(std::atol(argv[i] + 10));
    } else if (std::strcmp(argv[i], "--calibrate") == 0) {
      do_calibrate = true;
    } else if (std::strncmp(argv[i], "--calibrate=", 12) == 0) {
      do_calibrate = true;
      target_ms = std::atof(argv[i] + 12);
    } else {
      std::fprintf(stderr, "unknown arg %s\n", argv[i]);
      return 2;
    }
  }

  data::SyntheticFeatures ds(256, 16, 4, 11, 0.2);
  data::DataLoader loader(ds, 32, 5);

  // Environment fingerprint: throughput numbers are meaningless without the
  // thread budget and pinning policy they were measured under.
  const std::size_t num_threads = configured_num_threads();
  const std::size_t stage_workers =
      stage_workers_from_env(kNumPipelines * kNumStages);
  const char* pin_policy = to_string(pin_policy_from_env());
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("env: threads=%zu stage_workers=%zu pin=%s cores=%u\n",
              num_threads, stage_workers, pin_policy, hw);

  const std::vector<BenchConfig> configs = {
      {schedule::Kind::kAfab, false, 1, "afab"},
      {schedule::Kind::kAfab, true, 1, "afab"},
      {schedule::Kind::kOneFOneB, false, 1, "1f1b"},
      {schedule::Kind::kOneFOneB, true, 1, "1f1b"},
      {schedule::Kind::kAdvanceForward, false, 1, "afp"},
      {schedule::Kind::kAdvanceForward, true, 1, "afp"},
  };

  bool correctness_ok = true;
  std::printf("-- toy workload (hidden=32) --\n");
  const std::vector<BenchResult> results =
      run_suite(configs, 32, loader, iters, repeats, 20, &correctness_ok);

  const double parity_delta = parity_delta_of(results);
  const bool parity_ok = parity_delta <= 0.02;
  if (!parity_ok) {
    std::fprintf(stderr, "FAIL sync/async loss divergence: %.3e\n",
                 parity_delta);
    correctness_ok = false;
  }

  // Quantized sync transport: afp/async toy system under each codec, with
  // the uncompressed run as control.
  std::printf("-- sync compression (afp async, hidden=32) --\n");
  std::vector<CompressionResult> compression_results;
  for (const tensor::Codec codec :
       {tensor::Codec::kNone, tensor::Codec::kFp16, tensor::Codec::kInt8}) {
    compression_results.push_back(
        run_compression(codec, loader, iters, repeats));
    const auto& c = compression_results.back();
    std::printf(
        "%-5s %8.1f iters/s  loss %.4f  wire %8.0f B/iter  raw %8.0f B/iter"
        "  ratio %.2fx\n",
        c.codec.c_str(), c.iters_per_sec, c.final_loss, c.wire_bytes_per_iter,
        c.raw_bytes_per_iter, c.ratio);
    if (!std::isfinite(c.final_loss)) {
      std::fprintf(stderr, "FAIL compression %s: non-finite loss\n",
                   c.codec.c_str());
      correctness_ok = false;
    }
  }
  // Warn-only perf signal (CI policy): int8 must move >= 3x fewer bytes.
  for (const auto& c : compression_results) {
    if (c.codec == "int8" && c.ratio < 3.0) {
      std::fprintf(stderr, "WARN int8 compression ratio %.2fx below 3x\n",
                   c.ratio);
    }
  }

  // Calibrated compute-bound workload.
  Calibration cal;
  std::vector<BenchResult> cal_results;
  double cal_parity_delta = 0;
  bool cal_parity_ok = true;
  if (do_calibrate) {
    const data::Batch probe = loader.batch(0, 0);
    cal = calibrate(target_ms, probe);
    std::printf(
        "-- calibrated workload: hidden=%zu, stage step %.3f ms "
        "(target %.1f ms%s) --\n",
        cal.hidden, cal.measured_stage_ms, cal.target_stage_ms,
        cal.reached_target ? "" : ", NOT reached");
    // Scale the iteration count to the heavier model so the suite stays
    // bounded (~a few seconds per config), and measure fewer but longer
    // windows.
    const double est_iter_ms = cal.measured_stage_ms *
                               static_cast<double>(kNumStages * kMicroBatches *
                                                   kNumPipelines);
    const std::size_t cal_iters = std::clamp<std::size_t>(
        static_cast<std::size_t>(3000.0 / std::max(est_iter_ms, 1.0)), 4, 40);
    cal_results = run_suite(configs, cal.hidden, loader, cal_iters, 2,
                            std::min<std::size_t>(cal_iters, 12),
                            &correctness_ok);

    cal_parity_delta = parity_delta_of(cal_results);
    cal_parity_ok = cal_parity_delta <= 0.02;
    if (!cal_parity_ok) {
      std::fprintf(stderr, "FAIL calibrated sync/async divergence: %.3e\n",
                   cal_parity_delta);
      correctness_ok = false;
    }

    // Campaign targets (warn-only: one-core CI machines cannot demonstrate
    // pipeline parallelism, so these gate nothing).
    const double c_afp = iters_of(cal_results, "afp", "async");
    const double c_1f1b = iters_of(cal_results, "1f1b", "sync");
    const double c_afab = iters_of(cal_results, "afab", "sync");
    if (!(c_afp > c_1f1b && c_1f1b > c_afab)) {
      std::fprintf(stderr,
                   "WARN calibrated ordering afp(%.1f) > 1f1b(%.1f) > "
                   "afab(%.1f) not met\n",
                   c_afp, c_1f1b, c_afab);
    }
    for (const auto& r : cal_results) {
      if (r.schedule != "afp" || r.mode != "async") continue;
      for (std::size_t s = 0; s < r.idle_fraction.size(); ++s) {
        if (r.idle_fraction[s] >= 0.5) {
          std::fprintf(stderr, "WARN calibrated afp idle[%zu] %.2f >= 0.5\n",
                       s, r.idle_fraction[s]);
        }
      }
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    out << "{\n  \"schema\": \"avgpipe-runtime-bench-v2\",\n";
    out << "  \"env\": {\"num_threads\": " << num_threads
        << ", \"stage_workers\": " << stage_workers << ", \"pin_policy\": \""
        << pin_policy << "\", \"hardware_concurrency\": " << hw << "},\n";
    out << "  \"calibration\": {\"enabled\": "
        << (cal.enabled ? "true" : "false")
        << ", \"target_stage_ms\": " << cal.target_stage_ms
        << ", \"hidden\": " << cal.hidden
        << ", \"measured_stage_ms\": " << cal.measured_stage_ms
        << ", \"reached_target\": " << (cal.reached_target ? "true" : "false")
        << "},\n";
    write_systems(out, "systems", results);
    if (cal.enabled) write_systems(out, "calibrated_systems", cal_results);
    out << "  \"compression\": [\n";
    for (std::size_t i = 0; i < compression_results.size(); ++i) {
      const auto& c = compression_results[i];
      out << "    {\"codec\": \"" << c.codec
          << "\", \"iters_per_sec\": " << c.iters_per_sec
          << ", \"final_loss\": " << c.final_loss
          << ", \"wire_bytes_per_iter\": " << c.wire_bytes_per_iter
          << ", \"raw_bytes_per_iter\": " << c.raw_bytes_per_iter
          << ", \"ratio\": " << c.ratio << "}"
          << (i + 1 < compression_results.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"parity_delta\": " << parity_delta << ",\n";
    out << "  \"parity_ok\": " << (parity_ok ? "true" : "false");
    if (cal.enabled) {
      out << ",\n  \"calibrated_parity_delta\": " << cal_parity_delta
          << ",\n  \"calibrated_parity_ok\": "
          << (cal_parity_ok ? "true" : "false");
    }
    out << "\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return correctness_ok ? 0 : 1;
}
