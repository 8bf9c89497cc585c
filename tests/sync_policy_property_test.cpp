#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "core/avgpipe.hpp"
#include "core/scenario_matrix.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"

namespace avgpipe::core {
namespace {

using data::Batch;
using data::DataLoader;
using data::SyntheticFeatures;
using tensor::Variable;

/// Randomized robustness sweep: every sync policy, under a randomly drawn
/// (but seeded) configuration and every canonical fault-scenario class, must
/// (1) terminate, (2) keep every parameter finite, and (3) keep every
/// reported loss finite. This is the property-level complement of the
/// deterministic scenario matrix — it hunts for configurations where a
/// policy's update rule amplifies a fault into NaN/Inf or a hang.

runtime::OptimizerFactory sgd_factory(double lr) {
  return [lr](std::vector<Variable> params) {
    return std::make_unique<optim::Sgd>(std::move(params), lr);
  };
}

bool all_finite(const ParamSet& params) {
  for (const auto& t : params) {
    for (const double v : t.data()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

SyncPolicyConfig random_policy_config(SyncPolicyKind kind, Rng& rng) {
  SyncPolicyConfig config;
  config.kind = kind;
  // BMUF: sample η; the policy sets ζ = 1−η, on the CBM stability bound.
  config.block_momentum = rng.uniform(0.0, 0.9);
  config.prediction_lookahead = rng.uniform(0.0, 1.5);
  return config;
}

TEST(SyncPolicyPropertyTest, RandomConfigsSurviveEveryFaultScenario) {
  Rng rng(20260809);
  const std::size_t trials = 3;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    for (const SyncPolicyKind kind : all_sync_policies()) {
      for (const fault::ScenarioKind scenario : fault::all_scenarios()) {
        const auto pipelines =
            static_cast<std::size_t>(rng.uniform_int(2, 3));
        const auto micro_batches =
            static_cast<std::size_t>(rng.uniform_int(2, 4));
        const bool async = rng.uniform_int(0, 1) == 1;
        const auto sync_lag =
            static_cast<std::size_t>(rng.uniform_int(0, 2));
        const double lr = rng.uniform(0.02, 0.3);
        const auto seed =
            static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << " policy " << to_string(kind)
                     << " scenario " << fault::to_string(scenario) << " N="
                     << pipelines << " M=" << micro_batches << " async="
                     << async << " lag=" << sync_lag << " lr=" << lr
                     << " seed=" << seed);

        SyntheticFeatures ds(64, 6, 2, seed, /*noise=*/0.4);
        DataLoader loader(ds, 8, seed + 1);
        const fault::FaultPlan plan =
            fault::make_scenario(scenario, pipelines, seed);

        AvgPipeConfig cfg;
        cfg.num_pipelines = pipelines;
        cfg.micro_batches = micro_batches;
        cfg.boundaries = {2};
        cfg.async_sync = async;
        cfg.sync_lag = sync_lag;
        cfg.faults = &plan;
        cfg.sync = random_policy_config(kind, rng);
        AvgPipe system(
            [](std::uint64_t s) { return nn::make_mlp(6, 8, 2, 2, s); },
            sgd_factory(lr), cfg);

        const std::size_t per_epoch = loader.batches_per_epoch();
        for (std::size_t step = 0; step < 10; ++step) {
          std::vector<Batch> batches;
          for (std::size_t p = 0; p < pipelines; ++p) {
            const std::size_t g = step * pipelines + p;
            batches.push_back(loader.batch(g / per_epoch, g % per_epoch));
          }
          const double loss = system.train_iteration(batches);
          ASSERT_TRUE(std::isfinite(loss)) << "step " << step;
        }
        system.synchronize();
        EXPECT_TRUE(all_finite(system.reference_snapshot()));
        EXPECT_TRUE(all_finite(system.broadcast_snapshot()));
        for (std::size_t p = 0; p < pipelines; ++p) {
          if (system.pipeline_alive(p)) {
            EXPECT_TRUE(all_finite(system.replica_snapshot(p)))
                << "replica " << p;
          }
        }
      }
    }
  }
}

TEST(SyncPolicyPropertyTest, RandomDegenerateConfigsHoldBitParity) {
  // The parity gate is not a property of one lucky seed: resample the
  // workload and it must still hold exactly.
  Rng rng(77);
  for (std::size_t trial = 0; trial < 2; ++trial) {
    MatrixSpec spec;
    spec.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 16));
    spec.parity_steps = 3;
    for (const SyncPolicyKind kind : all_sync_policies()) {
      SCOPED_TRACE(::testing::Message() << "seed " << spec.seed << " policy "
                                        << to_string(kind));
      const PolicyParity parity = run_parity(spec, kind);
      EXPECT_TRUE(parity.ok);
      EXPECT_EQ(parity.param_delta, 0.0);
    }
  }
}

}  // namespace
}  // namespace avgpipe::core
