#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/avgpipe.hpp"
#include "data/synthetic.hpp"
#include "fault/fault_plan.hpp"
#include "nn/models.hpp"
#include "trace/analysis.hpp"
#include "trace/happens_before.hpp"

namespace avgpipe {
namespace {

using core::AvgPipe;
using core::AvgPipeConfig;
using data::DataLoader;
using data::SyntheticFeatures;
using tensor::Variable;

runtime::OptimizerFactory sgd_factory(double lr) {
  return [lr](std::vector<Variable> params) {
    return std::make_unique<optim::Sgd>(std::move(params), lr);
  };
}

nn::ModelFactory mlp_factory(std::size_t in, std::size_t hidden,
                             std::size_t depth, std::size_t classes) {
  return [=](std::uint64_t seed) {
    return nn::make_mlp(in, hidden, depth, classes, seed);
  };
}

struct TempDir {
  TempDir() {
    std::string tmpl = "/tmp/avgpipe_soak_test_XXXXXX";
    const char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

// Tier-1 smoke version of the chaos soak (bench/fig_fault_recovery --soak runs
// the long one): a seeded plan of mid-batch worker kills at randomized crash
// points, periodic durable checkpoints, and periodic bit-flip corruption of
// the newest checkpoint file. Invariants, every cycle:
//   - train_iteration never throws and every reported loss is finite (a lost
//     round reports 0.0 over the survivors, which still counts as contained);
//   - every killed pipeline is re-attached before the next iteration;
//   - corrupted checkpoints only ever cost fallbacks, never a crash;
//   - the collected trace replays clean through the happens-before checker
//     (crash epochs keep aborted batches from tripping the scope checks).
// The soak runs at lag 0 and on the async path with sync_lag 1: a kill that
// takes out every pipeline in one round must not ship an empty round there.
class RecoverySoakTest : public ::testing::TestWithParam<bool> {};

TEST_P(RecoverySoakTest, RandomizedKillRestoreCyclesPreserveInvariants) {
  const std::size_t kIters = 36;
  Rng chaos(20260809);

  fault::FaultPlan plan;
  for (long step = 2; step < static_cast<long>(kIters); step += 3) {
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

  TempDir tmp;
  ckpt::CheckpointDir ckpts(tmp.path);
  trace::Tracer tracer;
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  cfg.checkpoints = &ckpts;
  cfg.restore_on_failure = true;
  cfg.faults = &plan;
  cfg.tracer = &tracer;
  cfg.async_sync = GetParam();
  cfg.sync_lag = 1;
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);

  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);

  std::size_t corruptions = 0;
  for (std::size_t iter = 0; iter < kIters; ++iter) {
    const double loss =
        system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
    EXPECT_TRUE(std::isfinite(loss)) << "iter " << iter;
    EXPECT_EQ(system.alive_pipelines(), 2u) << "iter " << iter;
    if (iter % 4 == 3) system.save_checkpoint();
    if (iter % 9 == 8 && !ckpts.entries().empty()) {
      // Chaos: corrupt the newest committed checkpoint. Later restores must
      // fall back to the previous entry, never crash.
      ckpt::flip_bit(tmp.path + "/" + ckpts.entries().back().file,
                     static_cast<std::uint64_t>(
                         chaos.uniform_int(0, (1 << 20) - 1)));
      ++corruptions;
    }
  }
  ASSERT_GT(corruptions, 0u);
  system.synchronize();

  // The directory still restores (over the corrupted entries if need be).
  ckpt::TrainState state;
  const auto res = ckpts.load_latest(&state);
  EXPECT_TRUE(res.ok) << res.error;

  const std::vector<trace::TraceEvent> events = tracer.collect();

  // Every crash episode closed: the kill count matches the plan's fired
  // records and each one re-attached (kPipelineRejoin via the restore path).
  trace::TraceAnalysis analysis(events);
  const auto episodes = analysis.recoveries();
  EXPECT_GT(episodes.size(), 2u);
  for (const auto& r : episodes) {
    EXPECT_TRUE(r.rejoined) << "pipeline " << r.pipeline << " crashed at t="
                            << r.t_crash << " and never came back";
  }
  EXPECT_EQ(analysis.checkpoint_events().size(), kIters / 4);
  EXPECT_GT(analysis.checkpoint_bytes(), 0u);
  EXPECT_FALSE(analysis.restore_events().empty());

  // Clean happens-before replay across all the crash/restore churn.
  const trace::HbReport report = trace::check_happens_before(events);
  std::string details;
  for (const auto& v : report.violations) details += v.what + "\n";
  EXPECT_TRUE(report.ok) << report.summary() << "\n" << details;
}

INSTANTIATE_TEST_SUITE_P(SyncModes, RecoverySoakTest, ::testing::Bool(),
                         [](const auto& info) {
                           return std::string(info.param ? "AsyncLag1"
                                                          : "Lag0");
                         });

}  // namespace
}  // namespace avgpipe
