#include "core/scenario_matrix.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <ostream>

#include "common/check.hpp"
#include "core/avgpipe.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "runtime/semantics.hpp"
#include "trace/analysis.hpp"
#include "trace/trace.hpp"

namespace avgpipe::core {

namespace {

nn::ModelFactory matrix_model(const MatrixSpec& spec) {
  return [spec](std::uint64_t seed) {
    return nn::make_mlp(spec.features, spec.hidden, spec.depth, spec.classes,
                        seed);
  };
}

runtime::OptimizerFactory matrix_optimizer(const MatrixSpec& spec) {
  const double lr = spec.lr;
  return [lr](std::vector<tensor::Variable> params) {
    return std::make_unique<optim::Sgd>(std::move(params), lr);
  };
}

double elapsed_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

CellResult run_cell(const MatrixSpec& spec, SyncPolicyKind policy,
                    fault::ScenarioKind scenario,
                    SyncCompression compression) {
  CellResult cell;
  cell.policy = policy;
  cell.scenario = scenario;
  cell.codec = compression.codec;
  cell.label = to_string(policy);
  if (compression.enabled()) {
    cell.label += std::string("[") + tensor::to_string(compression.codec) +
                  "]";
  }

  data::SyntheticFeatures ds(spec.samples, spec.features, spec.classes,
                             spec.seed, spec.noise);
  data::DataLoader loader(ds, spec.batch_size, spec.seed + 1);
  const fault::FaultPlan plan =
      fault::make_scenario(scenario, spec.pipelines, spec.seed);

  // Only compressed cells pay for a tracer (the byte counters are all we
  // read from it).
  trace::Tracer tracer;

  AvgPipeConfig cfg;
  cfg.num_pipelines = spec.pipelines;
  cfg.micro_batches = spec.micro_batches;
  cfg.boundaries = spec.boundaries;
  cfg.async_sync = spec.async_sync;
  cfg.sync_lag = spec.sync_lag;
  cfg.faults = &plan;
  cfg.sync.kind = policy;
  // Pinned (even when off): matrix rows must not depend on the environment.
  cfg.sync_compression = compression;
  if (compression.enabled()) cfg.tracer = &tracer;
  AvgPipe system(matrix_model(spec), matrix_optimizer(spec), cfg);

  const std::size_t per_epoch = loader.batches_per_epoch();
  const double samples_per_step =
      static_cast<double>(spec.pipelines * spec.batch_size);
  cell.best_loss = std::numeric_limits<double>::infinity();

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t step = 0; step < spec.steps; ++step) {
    std::vector<data::Batch> batches;
    batches.reserve(spec.pipelines);
    for (std::size_t p = 0; p < spec.pipelines; ++p) {
      const std::size_t g = step * spec.pipelines + p;
      batches.push_back(loader.batch(g / per_epoch, g % per_epoch));
    }
    system.train_iteration(batches);

    if ((step + 1) % spec.eval_every == 0 || step + 1 == spec.steps) {
      const double loss = runtime::evaluate_loss(system.eval_model(), loader,
                                                 0, spec.eval_batches);
      cell.finite = cell.finite && std::isfinite(loss);
      cell.best_loss = std::min(cell.best_loss, loss);
      if (loss <= spec.target_loss && cell.steps_to_target < 0) {
        cell.steps_to_target = static_cast<long>(step + 1);
        cell.epochs_to_target =
            static_cast<double>(cell.steps_to_target) * samples_per_step /
            static_cast<double>(spec.samples);
      }
    }
  }
  cell.wall_seconds = elapsed_seconds(t0);
  cell.final_loss =
      runtime::evaluate_loss(system.eval_model(), loader, 0, spec.eval_batches);
  cell.finite = cell.finite && std::isfinite(cell.final_loss);
  if (compression.enabled()) {
    system.synchronize();  // flush worker trace buffers
    cell.sync_ratio = trace::TraceAnalysis(tracer.collect()).compression_ratio();
  }
  return cell;
}

PolicyParity run_parity(const MatrixSpec& spec, SyncPolicyKind policy) {
  PolicyParity parity;
  parity.policy = policy;

  data::SyntheticFeatures ds(64, spec.features, spec.classes, spec.seed);
  data::DataLoader loader(ds, spec.batch_size, spec.seed + 2);

  // The policy under test: N = 1, degenerate configuration, full threaded
  // system (so the gate covers the worker/reference machinery too).
  AvgPipeConfig cfg;
  cfg.num_pipelines = 1;
  cfg.micro_batches = spec.micro_batches;
  cfg.boundaries = spec.boundaries;
  cfg.sync = degenerate_config(policy);
  // The gate asserts exact-0.0 deltas of the uncompressed math; pin the
  // codec off so an env-forced AVGPIPE_SYNC_COMPRESS can't fail it.
  cfg.sync_compression = SyncCompression{};
  AvgPipe system(matrix_model(spec), matrix_optimizer(spec), cfg);

  // Serial pipelined SGD baseline: same factory seed as AvgPipe's replicas
  // (1234), same partitioning and micro-batching, no sync layer at all.
  nn::Sequential serial_model = matrix_model(spec)(1234);
  runtime::PipelineRuntime serial(
      serial_model, spec.boundaries, matrix_optimizer(spec),
      runtime::cross_entropy_loss(),
      {.kind = cfg.kind,
       .advance_num = cfg.advance_num,
       .micro_batches = spec.micro_batches});

  const std::size_t per_epoch = loader.batches_per_epoch();
  for (std::size_t step = 0; step < spec.parity_steps; ++step) {
    const data::Batch b = loader.batch(step / per_epoch, step % per_epoch);
    const double avg_loss = system.train_iteration({b});
    const double serial_loss = serial.train_batch(b).loss;
    parity.loss_delta =
        std::max(parity.loss_delta, std::abs(avg_loss - serial_loss));
  }
  parity.param_delta = max_abs_diff(
      system.replica_snapshot(0), clone_values(serial_model.parameters()));
  parity.ok = parity.param_delta == 0.0 && parity.loss_delta == 0.0;
  return parity;
}

MatrixResult run_matrix(const MatrixSpec& spec) {
  MatrixResult result;
  result.spec = spec;
  result.parity_ok = true;
  for (const SyncPolicyKind policy : spec.policies) {
    PolicyParity parity = run_parity(spec, policy);
    result.parity_delta = std::max(
        result.parity_delta, std::max(parity.param_delta, parity.loss_delta));
    result.parity_ok = result.parity_ok && parity.ok;
    result.parity.push_back(parity);
  }
  for (const SyncPolicyKind policy : spec.policies) {
    for (const fault::ScenarioKind scenario : spec.scenarios) {
      if (scenario == fault::ScenarioKind::kCrashRejoin &&
          spec.pipelines < 2) {
        continue;  // crashing the only pipeline aborts rather than degrades
      }
      result.cells.push_back(run_cell(spec, policy, scenario));
    }
  }
  // Quantized-transport rows: elastic under each requested codec, across the
  // same scenarios, so the lossy-sync accuracy claim faces the same faults.
  for (const tensor::Codec codec : spec.elastic_codecs) {
    if (codec == tensor::Codec::kNone) continue;  // that's the elastic row
    SyncCompression compression;
    compression.codec = codec;
    for (const fault::ScenarioKind scenario : spec.scenarios) {
      if (scenario == fault::ScenarioKind::kCrashRejoin &&
          spec.pipelines < 2) {
        continue;
      }
      result.cells.push_back(
          run_cell(spec, SyncPolicyKind::kElastic, scenario, compression));
    }
  }
  return result;
}

void write_matrix_json(const MatrixResult& result, std::ostream& os) {
  os.precision(6);
  os << "{\n";
  os << "  \"schema\": \"avgpipe-sync-policy-matrix-v1\",\n";
  const MatrixSpec& s = result.spec;
  os << "  \"spec\": {\"pipelines\": " << s.pipelines
     << ", \"micro_batches\": " << s.micro_batches
     << ", \"steps\": " << s.steps << ", \"batch_size\": " << s.batch_size
     << ", \"samples\": " << s.samples << ", \"lr\": " << s.lr
     << ", \"target_loss\": " << s.target_loss << ", \"seed\": " << s.seed
     << ", \"async_sync\": " << (s.async_sync ? "true" : "false")
     << ", \"sync_lag\": " << s.sync_lag << "},\n";
  os << "  \"cells\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellResult& c = result.cells[i];
    os << "    {\"policy\": \""
       << (c.label.empty() ? to_string(c.policy) : c.label)
       << "\", \"scenario\": \""
       << fault::to_string(c.scenario) << "\", \"codec\": \""
       << tensor::to_string(c.codec) << "\", \"sync_ratio\": " << c.sync_ratio
       << ", \"final_loss\": " << c.final_loss
       << ", \"best_loss\": " << c.best_loss
       << ", \"steps_to_target\": " << c.steps_to_target
       << ", \"epochs_to_target\": " << c.epochs_to_target
       << ", \"wall_seconds\": " << c.wall_seconds
       << ", \"finite\": " << (c.finite ? "true" : "false") << "}"
       << (i + 1 < result.cells.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"parity\": [\n";
  for (std::size_t i = 0; i < result.parity.size(); ++i) {
    const PolicyParity& p = result.parity[i];
    os << "    {\"policy\": \"" << to_string(p.policy)
       << "\", \"param_delta\": " << p.param_delta
       << ", \"loss_delta\": " << p.loss_delta
       << ", \"ok\": " << (p.ok ? "true" : "false") << "}"
       << (i + 1 < result.parity.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"parity_delta\": " << result.parity_delta << ",\n";
  os << "  \"parity_ok\": " << (result.parity_ok ? "true" : "false") << "\n";
  os << "}\n";
}

}  // namespace avgpipe::core
