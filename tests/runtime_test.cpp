#include "runtime/pipeline_runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "runtime/semantics.hpp"
#include "tensor/arena.hpp"

namespace avgpipe::runtime {
namespace {

using data::Batch;
using data::DataLoader;
using data::SyntheticFeatures;
using nn::Sequential;

OptimizerFactory sgd_factory(double lr) {
  return [lr](std::vector<tensor::Variable> params) {
    return std::make_unique<optim::Sgd>(std::move(params), lr);
  };
}

/// Reference: plain single-process full-batch training step.
double reference_step(Sequential& model, optim::Optimizer& opt,
                      const Batch& batch) {
  opt.zero_grad();
  tensor::Variable in(batch.inputs);
  tensor::Variable out = model.forward(in);
  tensor::Variable loss = tensor::softmax_cross_entropy(out, batch.targets);
  loss.backward();
  opt.step();
  return loss.value()[0];
}

class PipelineRuntimeTest
    : public ::testing::TestWithParam<schedule::Kind> {};

TEST_P(PipelineRuntimeTest, MatchesSingleProcessTraining) {
  // The pipeline (any flushed schedule) must produce numerically identical
  // parameters to plain training on the same batches: schedules change only
  // execution order, never semantics.
  const std::size_t batch_size = 12, micro = 4;
  SyntheticFeatures ds(48, 6, 3, 21);
  DataLoader loader(ds, batch_size, 5);

  Sequential reference = nn::make_mlp(6, 8, 3, 3, /*seed=*/77);
  optim::Sgd ref_opt(reference.parameters(), 0.1);

  Sequential piped = nn::make_mlp(6, 8, 3, 3, /*seed=*/77);
  PipelineRuntime runtime(piped, {2, 4}, sgd_factory(0.1),
                          cross_entropy_loss(), GetParam(),
                          GetParam() == schedule::Kind::kAdvanceForward ? 3
                                                                        : 0);

  for (std::size_t i = 0; i < 4; ++i) {
    const Batch batch = loader.batch(0, i);
    const double ref_loss = reference_step(reference, ref_opt, batch);
    const BatchStats stats = runtime.train_batch(batch, micro);
    EXPECT_NEAR(stats.loss, ref_loss, 1e-9) << "batch " << i;
  }
  auto pr = reference.parameters();
  auto pp = runtime.model().parameters();
  ASSERT_EQ(pr.size(), pp.size());
  for (std::size_t i = 0; i < pr.size(); ++i) {
    EXPECT_LT(pr[i].value().max_abs_diff(pp[i].value()), 1e-9)
        << "param " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, PipelineRuntimeTest,
                         ::testing::Values(schedule::Kind::kAfab,
                                           schedule::Kind::kOneFOneB,
                                           schedule::Kind::kAdvanceForward),
                         [](const auto& info) {
                           std::string n = schedule::to_string(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(PipelineRuntimeStashTest, OneFOneBRespectsPaperBound) {
  // Paper §4.1: the k-th of K GPUs stashes at most K-k+1 (1-indexed)
  // micro-batches under 1F1B; AFAB stashes all M.
  const std::size_t micro = 6;
  SyntheticFeatures ds(24, 4, 2, 3);
  DataLoader loader(ds, 12, 1);

  Sequential m1 = nn::make_mlp(4, 6, 3, 2, 1);
  PipelineRuntime f1b(m1, {2, 4}, sgd_factory(0.1), cross_entropy_loss(),
                      schedule::Kind::kOneFOneB);
  f1b.train_batch(loader.batch(0, 0), micro);
  EXPECT_LE(f1b.peak_stash(0), 3u);  // K=3, stage 0 -> K-0 = 3
  EXPECT_LE(f1b.peak_stash(2), 1u);

  Sequential m2 = nn::make_mlp(4, 6, 3, 2, 1);
  PipelineRuntime afab(m2, {2, 4}, sgd_factory(0.1), cross_entropy_loss(),
                       schedule::Kind::kAfab);
  afab.train_batch(loader.batch(0, 0), micro);
  EXPECT_EQ(afab.peak_stash(0), micro);
}

TEST(PipelineRuntimeTest, LossDecreasesOverTraining) {
  SyntheticFeatures ds(64, 8, 4, 9, /*noise=*/0.3);
  DataLoader loader(ds, 16, 2);
  Sequential model = nn::make_mlp(8, 16, 2, 4, 33);
  PipelineRuntime runtime(model, {2}, sgd_factory(0.2), cross_entropy_loss(),
                          schedule::Kind::kAdvanceForward);
  double first = 0, last = 0;
  for (std::size_t epoch = 0; epoch < 6; ++epoch) {
    for (std::size_t i = 0; i < loader.batches_per_epoch(); ++i) {
      const double loss = runtime.train_batch(loader.batch(epoch, i), 4).loss;
      if (epoch == 0 && i == 0) first = loss;
      last = loss;
    }
  }
  EXPECT_LT(last, first * 0.5);
}

TEST(PipelineRuntimeTest, StageWorkerShareIsBitInvariant) {
  // Training with intra-stage kernel parallelism (worker share > 1) must be
  // bit-identical to the serial share: GEMM row-block ownership is disjoint,
  // so AVGPIPE_STAGE_THREADS can only change timing, never the trajectory.
  // Hidden width 64 pushes the hidden-to-hidden GEMMs past the blocked-path
  // threshold so the fan-out actually engages.
  const std::size_t micro = 4;
  SyntheticFeatures ds(48, 6, 3, 21);
  DataLoader loader(ds, 12, 5);
  std::vector<double> base_losses;
  std::vector<double> base_params;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    Sequential model = nn::make_mlp(6, 64, 3, 3, /*seed=*/77);
    PipelineRuntime runtime(model, {2, 4}, sgd_factory(0.1),
                            cross_entropy_loss(), schedule::Kind::kOneFOneB);
    runtime.set_stage_workers(workers);
    EXPECT_EQ(runtime.stage_workers(), workers);
    std::vector<double> losses;
    for (std::size_t i = 0; i < 4; ++i) {
      losses.push_back(runtime.train_batch(loader.batch(0, i), micro).loss);
    }
    std::vector<double> params;
    for (auto& p : model.parameters()) {
      const auto v = p.value().data();
      params.insert(params.end(), v.begin(), v.end());
    }
    if (base_losses.empty()) {
      base_losses = std::move(losses);
      base_params = std::move(params);
    } else {
      EXPECT_EQ(losses, base_losses) << "workers=" << workers;
      EXPECT_EQ(params, base_params) << "workers=" << workers;
    }
  }
}

TEST(PipelineRuntimeTest, SingleStageWorks) {
  SyntheticFeatures ds(16, 4, 2, 3);
  DataLoader loader(ds, 8, 1);
  Sequential model = nn::make_mlp(4, 6, 1, 2, 1);
  PipelineRuntime runtime(model, {}, sgd_factory(0.1), cross_entropy_loss());
  const BatchStats stats = runtime.train_batch(loader.batch(0, 0), 2);
  EXPECT_GT(stats.loss, 0.0);
}

TEST(PipelineRuntimeTest, RejectsFlushFreeKinds) {
  Sequential model = nn::make_mlp(4, 6, 1, 2, 1);
  EXPECT_THROW(PipelineRuntime(model, {}, sgd_factory(0.1),
                               cross_entropy_loss(),
                               schedule::Kind::kPipeDream),
               Error);
}

// -- communication: capacities and zero-copy ----------------------------------------

TEST(PipelineRuntimeChannelTest, LinkCapacityDerivesFromSchedule) {
  // Capacity = max in-flight micro-batches per link + 1 slot of slack, so a
  // send at the exact schedule bound never parks. AFAB admits all M at once;
  // 1F1B/AFP are bounded by the warm-up depth max(advance_num, K-1) + 1.
  Sequential model = nn::make_mlp(4, 6, 3, 2, 1);  // K = 3 stages
  PipelineRuntime afab(model, {2, 4}, sgd_factory(0.1), cross_entropy_loss(),
                       schedule::Kind::kAfab);
  EXPECT_EQ(afab.link_capacity(6), 7u);   // M + 1
  EXPECT_EQ(afab.link_capacity(2), 3u);

  Sequential m2 = nn::make_mlp(4, 6, 3, 2, 1);
  PipelineRuntime f1b(m2, {2, 4}, sgd_factory(0.1), cross_entropy_loss(),
                      schedule::Kind::kOneFOneB);
  EXPECT_EQ(f1b.link_capacity(6), 4u);    // min(6, (K-1)+1) + 1
  EXPECT_EQ(f1b.link_capacity(2), 3u);    // min(2, 3) + 1

  Sequential m3 = nn::make_mlp(4, 6, 3, 2, 1);
  PipelineRuntime afp(m3, {2, 4}, sgd_factory(0.1), cross_entropy_loss(),
                      schedule::Kind::kAdvanceForward, /*advance_num=*/3);
  EXPECT_EQ(afp.link_capacity(6), 5u);    // min(6, max(3, K-1)+1) + 1
  EXPECT_EQ(afp.link_capacity(2), 3u);    // min(2, 4) + 1
}

TEST(PipelineRuntimeChannelTest, EnvOverrideWinsOverDerivation) {
  ASSERT_EQ(setenv("AVGPIPE_CHANNEL_CAPACITY", "9", 1), 0);
  Sequential model = nn::make_mlp(4, 6, 3, 2, 1);
  PipelineRuntime runtime(model, {2, 4}, sgd_factory(0.1),
                          cross_entropy_loss(), schedule::Kind::kOneFOneB);
  unsetenv("AVGPIPE_CHANNEL_CAPACITY");
  EXPECT_EQ(runtime.link_capacity(2), 9u);
  EXPECT_EQ(runtime.link_capacity(64), 9u);
  // The override must not break execution semantics.
  SyntheticFeatures ds(16, 4, 2, 3);
  DataLoader loader(ds, 8, 1);
  const BatchStats stats = runtime.train_batch(loader.batch(0, 0), 2);
  EXPECT_TRUE(std::isfinite(stats.loss));
}

TEST(PipelineRuntimeChannelTest, SteadyStateSendsAreZeroCopy) {
  // The send path transfers tensor ownership instead of cloning, so a
  // steady-state step performs a fixed number of arena acquires (any added
  // deep copy shows up as extra acquires) and is served from the free lists
  // (heap allocations flat-line after warm-up).
  SyntheticFeatures ds(48, 6, 3, 21);
  DataLoader loader(ds, 12, 1);
  Sequential model = nn::make_mlp(6, 8, 3, 3, 77);
  PipelineRuntime runtime(model, {2, 4}, sgd_factory(0.1),
                          cross_entropy_loss(),
                          schedule::Kind::kAdvanceForward, /*advance_num=*/3);
  const Batch batch = loader.batch(0, 0);
  for (int i = 0; i < 4; ++i) runtime.train_batch(batch, 4);  // warm up

  std::vector<std::uint64_t> acquires, heap_allocs;
  for (int i = 0; i < 8; ++i) {
    tensor::arena::reset_stats();
    runtime.train_batch(batch, 4);
    const auto s = tensor::arena::stats();
    acquires.push_back(s.acquires);
    heap_allocs.push_back(s.heap_allocs);
  }
  for (std::size_t i = 1; i < acquires.size(); ++i) {
    EXPECT_EQ(acquires[i], acquires[0]) << "step " << i;
  }
  // The arena's free lists are thread-local, so a buffer handed across a
  // stage link dies on the consumer's thread and the producer re-allocates:
  // a small constant per-step heap cost. Which thread frees a buffer first
  // depends on timing, so a step can allocate fewer buffers (a free landed
  // on the producer's own list) and the next one buffer more to make up for
  // it. No step may sit more than one buffer above the window's median — a
  // leak of one allocation per step would put the last steps three or more
  // above it — and every step stays a small fraction of total acquires — a
  // deep copy per micro-batch would multiply it.
  std::vector<std::uint64_t> sorted = heap_allocs;
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t median = sorted[sorted.size() / 2];
  for (std::size_t i = 0; i < heap_allocs.size(); ++i) {
    EXPECT_LE(heap_allocs[i], median + 1)
        << "step " << i << " heap allocations growing across steps";
    EXPECT_LE(heap_allocs[i], acquires[0] / 10)
        << "step " << i << " heap-allocating: send path copies?";
  }
}

// -- semantic trainers ------------------------------------------------------------------

TEST(SyncTrainerTest, MatchesManualTraining) {
  SyntheticFeatures ds(32, 4, 2, 3);
  DataLoader loader(ds, 8, 1);
  Sequential manual = nn::make_mlp(4, 6, 2, 2, 55);
  optim::Sgd manual_opt(manual.parameters(), 0.1);
  // Model and optimizer must share parameters.
  Sequential model = nn::make_mlp(4, 6, 2, 2, 55);
  auto opt = std::make_unique<optim::Sgd>(model.parameters(), 0.1);
  SyncTrainer t2(model, std::move(opt));
  for (int i = 0; i < 3; ++i) {
    const Batch b = loader.batch(0, static_cast<std::size_t>(i));
    const double manual_loss = reference_step(manual, manual_opt, b);
    const double trainer_loss = t2.train_batch(b);
    EXPECT_NEAR(manual_loss, trainer_loss, 1e-12);
  }
}

TEST(StalenessTrainerTest, ZeroDelayPerBatchEqualsSync) {
  SyntheticFeatures ds(32, 4, 2, 3);
  DataLoader loader(ds, 8, 1);

  Sequential sync_model = nn::make_mlp(4, 6, 2, 2, 55);
  auto sync_opt = std::make_unique<optim::Sgd>(sync_model.parameters(), 0.1);
  SyncTrainer sync(sync_model, std::move(sync_opt));

  Sequential stale_model = nn::make_mlp(4, 6, 2, 2, 55);
  auto stale_opt = std::make_unique<optim::Sgd>(stale_model.parameters(), 0.1);
  StalenessTrainer stale(stale_model, std::move(stale_opt), /*delay=*/0,
                         /*micro_batches=*/1, /*per_micro=*/false, "test");

  for (int i = 0; i < 3; ++i) {
    const Batch b = loader.batch(0, static_cast<std::size_t>(i));
    EXPECT_NEAR(sync.train_batch(b), stale.train_batch(b), 1e-12);
  }
  auto ps = sync.eval_model().parameters();
  auto pt = stale.eval_model().parameters();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_LT(ps[i].value().max_abs_diff(pt[i].value()), 1e-12);
  }
}

TEST(StalenessTrainerTest, DelayedGradientsDivergeFromSync) {
  SyntheticFeatures ds(32, 4, 2, 3);
  DataLoader loader(ds, 8, 1);

  Sequential a = nn::make_mlp(4, 6, 2, 2, 55);
  auto oa = std::make_unique<optim::Sgd>(a.parameters(), 0.1);
  SyncTrainer sync(a, std::move(oa));

  Sequential b = nn::make_mlp(4, 6, 2, 2, 55);
  auto ob = std::make_unique<optim::Sgd>(b.parameters(), 0.1);
  StalenessTrainer stale(b, std::move(ob), /*delay=*/3, /*micro_batches=*/4,
                         /*per_micro=*/true, "pipedream");

  for (int i = 0; i < 4; ++i) {
    const Batch batch = loader.batch(0, static_cast<std::size_t>(i));
    sync.train_batch(batch);
    stale.train_batch(batch);
  }
  auto pa = sync.eval_model().parameters();
  auto pb = stale.eval_model().parameters();
  double diff = 0;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    diff = std::max(diff, pa[i].value().max_abs_diff(pb[i].value()));
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(EvaluateTest, AccuracyAndLossOnSeparableData) {
  SyntheticFeatures ds(128, 6, 2, 3, /*noise=*/0.1);
  DataLoader loader(ds, 16, 7);
  Sequential model = nn::make_mlp(6, 12, 2, 2, 99);
  auto opt = std::make_unique<optim::Adam>(model.parameters(), 0.01);
  SyncTrainer trainer(model, std::move(opt));
  for (std::size_t epoch = 0; epoch < 8; ++epoch) {
    for (std::size_t i = 0; i < loader.batches_per_epoch(); ++i) {
      trainer.train_batch(loader.batch(epoch, i));
    }
  }
  EXPECT_GT(evaluate_accuracy(trainer.eval_model(), loader, 0, 4), 0.9);
  EXPECT_LT(evaluate_loss(trainer.eval_model(), loader, 0, 4), 0.5);
}

}  // namespace
}  // namespace avgpipe::runtime
