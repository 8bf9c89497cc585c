#include <gtest/gtest.h>

#include "core/avgpipe.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "sim/simulator.hpp"
#include "tuning/tuner.hpp"

namespace avgpipe {
namespace {

using data::DataLoader;

/// End-to-end check across both halves of the reproduction: the simulator
/// side (partition -> schedule -> timing/memory) and the real-training side
/// (pipelines + elastic averaging reach a target metric).

TEST(IntegrationTest, SimPipelineEndToEndOnPaperWorkloads) {
  for (const auto& w : workloads::paper_workloads()) {
    auto cluster = workloads::v100_cluster(w.num_gpus);
    auto part = partition::pipedream_partition(w, cluster, w.num_gpus);

    sim::SystemConfig sys;
    sys.kind = schedule::Kind::kAdvanceForward;
    sys.num_pipelines = 2;
    sys.elastic_averaging = true;
    sys.micro_batches = std::max<std::size_t>(1, w.batch_size / 8);
    auto job = sim::build_job(w, cluster, part, sys, w.batch_size, 3);
    job.advance_num = sim::adaptive_advance(job);
    const auto r = sim::simulate(job);

    EXPECT_GT(r.time_per_batch, 0.0) << w.name;
    EXPECT_FALSE(r.oom) << w.name;
    EXPECT_GT(r.mean_utilization, 0.0) << w.name;
    EXPECT_LE(r.peak_utilization, 1.0 + 1e-9) << w.name;
    // Tied output layers own no parameters, so a stage may carry zero
    // static memory; at least one stage must carry weights though.
    Bytes max_static = 0;
    for (const auto& g : r.gpus) {
      EXPECT_GE(g.peak_memory, g.static_memory) << w.name;
      max_static = std::max(max_static, g.static_memory);
    }
    EXPECT_GT(max_static, 0.0) << w.name;
  }
}

TEST(IntegrationTest, TuningPicksRunnableSettingOnPaperWorkloads) {
  for (const auto& w : workloads::paper_workloads()) {
    auto cluster = workloads::v100_cluster(w.num_gpus);
    auto part = partition::pipedream_partition(w, cluster, w.num_gpus);
    sim::SystemConfig sys;
    sys.kind = schedule::Kind::kAdvanceForward;
    sys.micro_batches = 1;
    auto job = sim::build_job(w, cluster, part, sys, w.batch_size, 3);

    auto grid = tuning::default_grid(w.batch_size, 4);
    const auto choice = tuning::profiling_tuner(job, w.batch_size, grid,
                                                cluster.gpu.memory);
    ASSERT_TRUE(choice.feasible) << w.name;
    EXPECT_GE(choice.m, 1u);
    EXPECT_GE(choice.n, 1u);
    EXPECT_GT(choice.time_per_sample, 0.0);
  }
}

TEST(IntegrationTest, AvgPipeSystemTrainsLstmClassifier) {
  // Full stack on a recurrent model: embedding + LSTM partitioned across
  // two stages, two elastic pipelines, AFP schedule.
  data::SyntheticSeqClassification ds(96, 16, 6, 2, 5, /*signal=*/0.95);
  DataLoader loader(ds, 12, 3);

  core::AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 3;
  config.boundaries = {2};  // embed+lstm | classifier head
  config.kind = schedule::Kind::kAdvanceForward;
  core::AvgPipe system(
      [](std::uint64_t seed) {
        return nn::make_gnmt_like(16, 8, 12, 1, 2, seed);
      },
      [](std::vector<tensor::Variable> params) {
        return std::make_unique<optim::Adam>(std::move(params), 0.01);
      },
      config);

  for (std::size_t epoch = 0; epoch < 12; ++epoch) {
    for (std::size_t i = 0; i + 1 < loader.batches_per_epoch(); i += 2) {
      system.train_iteration(
          {loader.batch(epoch, i), loader.batch(epoch, i + 1)});
    }
  }
  EXPECT_GT(runtime::evaluate_accuracy(system.eval_model(), loader, 0, 4),
            0.85);
}

TEST(IntegrationTest, StatisticalEfficiencyOrderingOnTinyTask) {
  // Miniature Figure 14: sync and AvgPipe reach the target in a similar
  // number of epochs; heavily stale PipeDream-style training needs at least
  // as many.
  data::SyntheticFeatures ds(192, 6, 2, 13, /*noise=*/0.35);
  const std::size_t batch = 16;
  const double target = 0.9;
  const std::size_t max_epochs = 30;

  auto run_epochs = [&](runtime::TrainerBase& trainer) -> std::size_t {
    DataLoader loader(ds, batch, 17);
    for (std::size_t epoch = 0; epoch < max_epochs; ++epoch) {
      const std::size_t per_iter = trainer.batches_per_iteration();
      std::size_t i = 0;
      while (i + per_iter <= loader.batches_per_epoch()) {
        std::vector<data::Batch> batches;
        for (std::size_t p = 0; p < per_iter; ++p) {
          batches.push_back(loader.batch(epoch, i++));
        }
        trainer.train_iteration(batches);
      }
      if (runtime::evaluate_accuracy(trainer.eval_model(), loader, 0, 6) >=
          target) {
        return epoch + 1;
      }
    }
    return max_epochs + 1;
  };

  auto factory = [](std::uint64_t seed) {
    return nn::make_mlp(6, 10, 2, 2, seed);
  };
  auto sgd = [](std::vector<tensor::Variable> params) {
    return std::make_unique<optim::Sgd>(std::move(params), 0.15);
  };

  nn::Sequential sync_model = factory(1234);
  runtime::SyncTrainer sync(sync_model, sgd(sync_model.parameters()));
  const std::size_t sync_epochs = run_epochs(sync);

  core::AvgPipeConfig avg_config;  // N=2, one stage, whole-batch steps
  avg_config.num_pipelines = 2;
  avg_config.micro_batches = 1;
  core::AvgPipe avg(factory, sgd, avg_config);
  const std::size_t avg_epochs = run_epochs(avg);

  nn::Sequential stale_model = factory(1234);
  runtime::StalenessTrainer stale(stale_model, sgd(stale_model.parameters()),
                                  /*delay=*/5, /*micro_batches=*/8,
                                  /*per_micro=*/true, "PipeDream");
  const std::size_t stale_epochs = run_epochs(stale);

  EXPECT_LE(sync_epochs, max_epochs);
  EXPECT_LE(avg_epochs, max_epochs);
  // AvgPipe must stay in the same league as sync (the paper's headline
  // statistical-efficiency claim) ...
  EXPECT_LE(avg_epochs, sync_epochs * 2 + 2);
  // ... and per-micro-batch stale training must not be *better* than sync.
  EXPECT_GE(stale_epochs + 1, sync_epochs);
}

}  // namespace
}  // namespace avgpipe
