#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "runtime/pipeline_runtime.hpp"

namespace avgpipe::runtime {
namespace {

using data::Batch;
using data::DataLoader;
using nn::Sequential;

/// The advance-forward schedule changes only *when* work runs, never *what*
/// is computed: for every advance count from the 1F1B minimum to the AFAB
/// maximum, the threaded pipeline must produce bit-comparable parameters to
/// plain training, and the stash bound must grow exactly with the advance.

OptimizerFactory sgd(double lr) {
  return [lr](std::vector<tensor::Variable> params) {
    return std::make_unique<optim::Sgd>(std::move(params), lr);
  };
}

class AdvanceParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AdvanceParamTest, MatchesPlainTrainingAtEveryAdvance) {
  const std::size_t advance = GetParam();
  const std::size_t micro = 6;
  data::SyntheticFeatures ds(36, 5, 3, 11);
  DataLoader loader(ds, 12, 2);

  Sequential reference = nn::make_mlp(5, 8, 3, 3, 42);
  optim::Sgd ref_opt(reference.parameters(), 0.1);

  Sequential piped = nn::make_mlp(5, 8, 3, 3, 42);
  PipelineRuntime runtime(piped, {2, 4}, sgd(0.1), cross_entropy_loss(),
                          {.kind = schedule::Kind::kAdvanceForward,
                           .advance_num = advance,
                           .micro_batches = micro});

  for (std::size_t i = 0; i < 3; ++i) {
    const Batch batch = loader.batch(0, i);
    // Plain full-batch step.
    ref_opt.zero_grad();
    tensor::Variable in(batch.inputs);
    tensor::Variable out = reference.forward(in);
    tensor::Variable loss = tensor::softmax_cross_entropy(out, batch.targets);
    loss.backward();
    ref_opt.step();

    const BatchStats stats = runtime.train_batch(batch);
    EXPECT_NEAR(stats.loss, loss.value()[0], 1e-9);
  }

  auto pr = reference.parameters();
  auto pp = runtime.model().parameters();
  for (std::size_t i = 0; i < pr.size(); ++i) {
    EXPECT_LT(pr[i].value().max_abs_diff(pp[i].value()), 1e-9)
        << "advance=" << advance << " param " << i;
  }
}

TEST_P(AdvanceParamTest, StashBoundTracksAdvance) {
  const std::size_t advance = GetParam();
  const std::size_t micro = 6;
  data::SyntheticFeatures ds(24, 5, 3, 11);
  DataLoader loader(ds, 12, 2);

  Sequential model = nn::make_mlp(5, 8, 3, 3, 42);
  PipelineRuntime runtime(model, {2, 4}, sgd(0.1), cross_entropy_loss(),
                          {.kind = schedule::Kind::kAdvanceForward,
                           .advance_num = advance,
                           .micro_batches = micro});
  runtime.train_batch(loader.batch(0, 0));

  // Stage 0's stash is warmup+1 in the interleave phase, capped by M.
  const std::size_t expected =
      std::min<std::size_t>(micro, schedule::warmup_for_stage(advance, 0,
                                                              micro) +
                                       1);
  EXPECT_LE(runtime.peak_stash(0), std::max<std::size_t>(expected, 1));
  // The last stage keeps its 1F1B-ish bound regardless of upstream advance.
  EXPECT_LE(runtime.peak_stash(2),
            schedule::warmup_for_stage(advance, 2, micro) + 1);
}

INSTANTIATE_TEST_SUITE_P(AdvanceRange, AdvanceParamTest,
                         ::testing::Values(2, 3, 4, 6, 8, 12),
                         [](const auto& info) {
                           return "advance_" + std::to_string(info.param);
                         });

TEST(AdvanceRuntimeTest, BelowMinimumThrowsAtConstruction) {
  Sequential model = nn::make_mlp(5, 8, 3, 3, 42);
  // K = 3 stages, advance 1 < K-1.
  EXPECT_THROW(PipelineRuntime(model, {2, 4}, sgd(0.1), cross_entropy_loss(),
                               {.kind = schedule::Kind::kAdvanceForward,
                                .advance_num = 1}),
               Error);
}

TEST(AdvanceRuntimeTest, LinkCapacityTracksAdvanceBeyondWarmup) {
  // advance_num > K-1: the derived capacity is min(M, advance+1) + 1 — the
  // advance depth caps the producer's run-ahead once M outgrows it.
  Sequential model = nn::make_mlp(5, 8, 3, 3, 42);
  PipelineRuntime runtime(model, {2, 4}, sgd(0.1), cross_entropy_loss(),
                          {.kind = schedule::Kind::kAdvanceForward,
                           .advance_num = 5});
  EXPECT_EQ(runtime.link_capacity(3), 4u);   // min(3, 6) + 1
  EXPECT_EQ(runtime.link_capacity(6), 7u);   // min(6, 6) + 1
  EXPECT_EQ(runtime.link_capacity(12), 7u);  // advance caps the run-ahead
}

}  // namespace
}  // namespace avgpipe::runtime
