#include "core/avgpipe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/env.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "test_util.hpp"
#include "trace/analysis.hpp"

namespace avgpipe::core {
namespace {

using data::Batch;
using data::DataLoader;
using data::SyntheticFeatures;
using tensor::Tensor;
using tensor::Variable;
using testutil::TextbookAvgPipe;

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

/// AvgPipe as an update-rule trainer: one stage, the whole batch as one
/// micro-batch, synchronous reference applies.
AvgPipeConfig update_rule_config(std::size_t pipelines) {
  AvgPipeConfig config;
  config.num_pipelines = pipelines;
  config.micro_batches = 1;
  return config;
}

// -- primitives -----------------------------------------------------------------------

TEST(ElasticMathTest, DefaultAlphaIsOneOverN) {
  EXPECT_DOUBLE_EQ(default_alpha(2), 0.5);
  EXPECT_DOUBLE_EQ(default_alpha(4), 0.25);
  // A single pipeline needs no elastic pull.
  EXPECT_DOUBLE_EQ(default_alpha(1), 0.0);
}

// The elastic policy's local_sync is steps ❷–❸: the pull toward the
// broadcast, then the update params − broadcast.

TEST(ElasticMathTest, PullMovesTowardReference) {
  Variable p(Tensor::from({0.0, 8.0}), true);
  std::vector<Variable> params{p};
  const ParamSet ref{Tensor::from({4.0, 4.0})};
  make_sync_policy({})->local_sync(params, ref, 0.5);
  EXPECT_DOUBLE_EQ(p.value()[0], 2.0);
  EXPECT_DOUBLE_EQ(p.value()[1], 6.0);
}

TEST(ElasticMathTest, PullWithZeroAlphaIsIdentity) {
  Variable p(Tensor::from({3.0}), true);
  std::vector<Variable> params{p};
  const ParamSet ref{Tensor::from({100.0})};
  make_sync_policy({})->local_sync(params, ref, 0.0);
  EXPECT_DOUBLE_EQ(p.value()[0], 3.0);
}

TEST(ElasticMathTest, UpdateIsPulledParamsMinusReference) {
  std::vector<Variable> p{Variable(Tensor::from({5.0, 7.0}), true)};
  const ParamSet ref{Tensor::from({1.0, 2.0})};
  const ParamSet diff = make_sync_policy({})->local_sync(p, ref, 0.0);
  EXPECT_DOUBLE_EQ(diff[0][0], 4.0);
  EXPECT_DOUBLE_EQ(diff[0][1], 5.0);
  const ParamSet pulled = make_sync_policy({})->local_sync(p, ref, 0.5);
  EXPECT_DOUBLE_EQ(p[0].value()[0], 3.0);  // 5 + 0.5·(1 − 5)
  EXPECT_DOUBLE_EQ(pulled[0][0], 2.0);     // 3 − 1
}

TEST(ReferenceModelTest, StaysAtMeanOfParallelModels) {
  // The paper's invariant: after steps ❷-❺, ref == mean of parallel models.
  Rng rng(5);
  const std::size_t n = 3;
  ParamSet init{Tensor::randn({6}, rng)};
  ReferenceModel ref(init);
  const auto policy = make_sync_policy({});

  std::vector<std::vector<Variable>> replicas;
  for (std::size_t i = 0; i < n; ++i) {
    replicas.push_back({Variable(init[0].clone(), true)});
  }

  const double alpha = default_alpha(n);
  for (int iter = 0; iter < 5; ++iter) {
    // Simulate divergent local updates.
    for (std::size_t i = 0; i < n; ++i) {
      Tensor noise = Tensor::randn({6}, rng, 0.1 * (1.0 + double(i)));
      replicas[i][0].value().axpy_(1.0, noise);
    }
    const ParamSet snapshot = ref.snapshot();
    std::vector<ParamSet> round;
    for (std::size_t i = 0; i < n; ++i) {
      round.push_back(policy->local_sync(replicas[i], snapshot, alpha));
    }
    ref.apply_round_batch({std::move(round)});

    // ref must equal the mean of the replicas.
    Tensor mean({6});
    for (std::size_t i = 0; i < n; ++i) {
      mean.axpy_(1.0 / static_cast<double>(n), replicas[i][0].value());
    }
    EXPECT_LT(mean.max_abs_diff(ref.params()[0]), 1e-12) << "iter " << iter;
  }
}

TEST(ReferenceModelTest, ConstructionAllocatesOnlyItsWeights) {
  // The reference holds its weights and nothing model-sized besides: the
  // fold runs on a register accumulator, so there is no buffer to allocate.
  Rng rng(3);
  ParamSet init{Tensor::randn({64}, rng), Tensor::randn({8}, rng)};
  const std::uint64_t before = tensor::arena::stats().acquires;
  ReferenceModel ref(std::move(init));
  EXPECT_EQ(tensor::arena::stats().acquires - before, 0u);
  EXPECT_EQ(ref.params().size(), 2u);
}

TEST(ReferenceModelTest, BatchedRoundApplyMatchesSequentialBitExact) {
  // The fused batch sweep must fold each round, oldest first, exactly like
  // the textbook accumulate-then-apply written out below — bit-identical,
  // not just close.
  Rng rng(21);
  const ParamSet init{Tensor::randn({8}, rng), Tensor::randn({3}, rng)};
  ParamSet seq = clone_set(init);
  ReferenceModel batched(clone_set(init));

  std::vector<std::vector<ParamSet>> rounds;
  for (const std::size_t round_size : {2u, 3u, 1u}) {
    std::vector<ParamSet> round;
    for (std::size_t u = 0; u < round_size; ++u) {
      round.push_back({Tensor::randn({8}, rng), Tensor::randn({3}, rng)});
    }
    rounds.push_back(std::move(round));
  }

  for (const auto& round : rounds) {
    for (std::size_t i = 0; i < seq.size(); ++i) {
      Tensor acc = Tensor::zeros(seq[i].shape());
      for (const auto& update : round) acc.axpy_(1.0, update[i]);
      seq[i].axpy_(1.0 / static_cast<double>(round.size()), acc);
    }
  }
  batched.apply_round_batch(rounds);

  EXPECT_EQ(max_abs_diff(seq, batched.params()), 0.0);
}

TEST(SyncPolicyBatching, ApplyRoundsMatchesSequentialLoopForEveryPolicy) {
  // `apply_rounds` (one fold of the reference process's due rounds) must
  // fold a batch exactly like one call per round — bit-exact for every
  // policy.
  Rng rng(42);
  const ParamSet init{Tensor::randn({6}, rng), Tensor::randn({2}, rng)};
  std::vector<std::vector<ParamSet>> rounds;
  for (const std::size_t round_size : {3u, 1u, 2u}) {
    std::vector<ParamSet> round;
    for (std::size_t u = 0; u < round_size; ++u) {
      round.push_back({Tensor::randn({6}, rng), Tensor::randn({2}, rng)});
    }
    rounds.push_back(std::move(round));
  }
  // The test body is single-threaded and owns both reference models — it is
  // the reference process for the policies it drives directly.
  common::RoleGuard ref_role(reference_capability());
  for (const SyncPolicyKind kind : all_sync_policies()) {
    auto loop_policy = make_sync_policy(degenerate_config(kind));
    auto batch_policy = make_sync_policy(degenerate_config(kind));
    ReferenceModel loop_ref(clone_set(init));
    ReferenceModel batch_ref(clone_set(init));
    for (const auto& round : rounds) {
      loop_policy->apply_rounds(loop_ref, {round});
    }
    batch_policy->apply_rounds(batch_ref, rounds);
    EXPECT_EQ(max_abs_diff(loop_ref.params(), batch_ref.params()), 0.0)
        << to_string(kind);
  }
}

// -- AvgPipe as an update-rule trainer --------------------------------------------------

TEST(AvgPipeUpdateRuleTest, ReferenceIsMeanAfterEveryIteration) {
  SyntheticFeatures ds(64, 4, 2, 3);
  DataLoader loader(ds, 8, 1);
  AvgPipeConfig config = update_rule_config(3);
  // The exact-mean invariant only holds for lossless pushes; pin off so the
  // test is immune to an env-forced codec.
  config.sync_compression = SyncCompression{};
  AvgPipe avg(mlp_factory(4, 8, 2, 2), sgd_factory(0.1), config);

  for (std::size_t iter = 0; iter < 3; ++iter) {
    std::vector<Batch> batches;
    for (std::size_t p = 0; p < 3; ++p) {
      batches.push_back(loader.batch(iter, p));
    }
    avg.train_iteration(batches);

    const ParamSet ref = avg.reference_snapshot();
    std::vector<ParamSet> replicas;
    for (std::size_t p = 0; p < 3; ++p) {
      replicas.push_back(avg.replica_snapshot(p));
    }
    for (std::size_t t = 0; t < ref.size(); ++t) {
      Tensor mean(ref[t].shape());
      for (const auto& replica : replicas) mean.axpy_(1.0 / 3.0, replica[t]);
      EXPECT_LT(mean.max_abs_diff(ref[t]), 1e-10);
    }
  }
}

TEST(AvgPipeUpdateRuleTest, ReplicasStayClose) {
  // The elastic pull must prevent divergence (paper §3.1, Figure 5).
  SyntheticFeatures ds(64, 4, 2, 3);
  DataLoader loader(ds, 8, 1);
  AvgPipe avg(mlp_factory(4, 8, 2, 2), sgd_factory(0.1), update_rule_config(2));
  for (std::size_t iter = 0; iter < 10; ++iter) {
    avg.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
  }
  const ParamSet p0 = avg.replica_snapshot(0);
  const ParamSet p1 = avg.replica_snapshot(1);
  double scale = 0;
  for (const auto& t : p0) scale = std::max(scale, t.abs_max());
  EXPECT_LT(max_abs_diff(p0, p1), scale);  // same order of magnitude
}

TEST(AvgPipeUpdateRuleTest, WrongBatchCountThrows) {
  AvgPipe avg(mlp_factory(4, 6, 1, 2), sgd_factory(0.1), update_rule_config(2));
  Batch b{Tensor({4, 4}), {0, 1, 0, 1}};
  EXPECT_THROW(avg.train_iteration({b}), Error);
}

TEST(AvgPipeUpdateRuleTest, WorksWithAdam) {
  // §3.1: the framework must be optimizer-agnostic.
  SyntheticFeatures ds(64, 4, 2, 3, 0.15);
  DataLoader loader(ds, 8, 1);
  AvgPipe avg(
      mlp_factory(4, 8, 2, 2),
      [](std::vector<Variable> params) {
        return std::make_unique<optim::Adam>(std::move(params), 0.01);
      },
      update_rule_config(2));
  for (std::size_t iter = 0; iter < 20; ++iter) {
    avg.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
  }
  EXPECT_GT(runtime::evaluate_accuracy(avg.eval_model(), loader, 0, 4), 0.8);
}

// -- AvgPipe (full threaded system) -----------------------------------------------------

TEST(AvgPipeSystemTest, MatchesTextbookRoundTrajectory) {
  // The threaded system (N pipeline runtimes, the driver folding the
  // reference) must produce the same parameters as the serial textbook
  // round.
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);

  AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 3;
  config.boundaries = {2};
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), config);
  TextbookAvgPipe oracle(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), 2, {},
                         system.sync_compression());

  for (std::size_t iter = 0; iter < 3; ++iter) {
    std::vector<Batch> batches{loader.batch(iter, 0), loader.batch(iter, 1)};
    system.train_iteration(batches);
    oracle.train_iteration(batches);
  }
  const ParamSet sys_ref = system.reference_snapshot();
  ASSERT_EQ(sys_ref.size(), oracle.reference().size());
  for (std::size_t i = 0; i < sys_ref.size(); ++i) {
    EXPECT_LT(sys_ref[i].max_abs_diff(oracle.reference()[i]), 1e-9)
        << "tensor " << i;
  }
}

TEST(AvgPipeSystemTest, TrainsToHighAccuracy) {
  SyntheticFeatures ds(128, 6, 2, 5, /*noise=*/0.15);
  DataLoader loader(ds, 16, 3);

  AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 4;
  config.boundaries = {3};
  config.kind = schedule::Kind::kAdvanceForward;
  AvgPipe system(mlp_factory(6, 12, 2, 2), sgd_factory(0.3), config);

  for (std::size_t epoch = 0; epoch < 10; ++epoch) {
    for (std::size_t i = 0; i + 1 < loader.batches_per_epoch(); i += 2) {
      system.train_iteration(
          {loader.batch(epoch, i), loader.batch(epoch, i + 1)});
    }
  }
  EXPECT_GT(runtime::evaluate_accuracy(system.eval_model(), loader, 0, 4),
            0.9);
}

TEST(AvgPipeSystemTest, AlphaDefaultsToOneOverN) {
  AvgPipeConfig config;
  config.num_pipelines = 4;
  config.boundaries = {};
  AvgPipe system(mlp_factory(4, 6, 1, 2), sgd_factory(0.1), config);
  EXPECT_DOUBLE_EQ(system.alpha(), 0.25);
}

// -- async elastic sync -----------------------------------------------------------------

struct LagOneSchedule {
  schedule::Kind kind;
  std::size_t advance_num;  ///< 0 -> K-1 (ignored by AFAB and 1F1B)
  SyncPolicyKind policy;
  const char* name;
};

void PrintTo(const LagOneSchedule& s, std::ostream* os) { *os << s.name; }

class AvgPipeLagOneTest : public ::testing::TestWithParam<LagOneSchedule> {};

TEST_P(AvgPipeLagOneTest, StaysOnSyncTrajectory) {
  // Round t reads the reference through round t - max(lag, 1): at lag 1 the
  // driver folds round t - 1 while round t trains, and every stage hook
  // waits for that fold. So lag 1 is lag 0 overlapped, bit for bit, on
  // every schedule — for elastic's pull and for BMUF's reset, which runs at
  // the start of the batch, closest to the fold.
  SyntheticFeatures ds(128, 6, 2, 5, /*noise=*/0.15);
  DataLoader loader(ds, 16, 3);

  AvgPipeConfig sync_cfg;
  sync_cfg.num_pipelines = 2;
  sync_cfg.micro_batches = 8;
  sync_cfg.boundaries = {2, 4};  // K = 3 stages
  sync_cfg.kind = GetParam().kind;
  sync_cfg.advance_num = GetParam().advance_num;
  sync_cfg.sync.kind = GetParam().policy;
  if (sync_cfg.kind == schedule::Kind::kAdvanceForward) {
    // An advance of K-1 builds the 1F1B stream again and one of M or more
    // the AFAB stream; AFP must sit strictly between them.
    ASSERT_GT(sync_cfg.advance_num, sync_cfg.boundaries.size());
    ASSERT_LT(sync_cfg.advance_num, sync_cfg.micro_batches);
  }
  AvgPipeConfig async_cfg = sync_cfg;
  async_cfg.async_sync = true;
  async_cfg.sync_lag = 1;

  AvgPipe sync_sys(mlp_factory(6, 12, 2, 2), sgd_factory(0.3), sync_cfg);
  AvgPipe async_sys(mlp_factory(6, 12, 2, 2), sgd_factory(0.3), async_cfg);

  for (std::size_t epoch = 0; epoch < 10; ++epoch) {
    for (std::size_t i = 0; i + 1 < loader.batches_per_epoch(); i += 2) {
      std::vector<Batch> batches{loader.batch(epoch, i),
                                 loader.batch(epoch, i + 1)};
      const double sync_loss = sync_sys.train_iteration(batches);
      const double async_loss = async_sys.train_iteration(batches);
      ASSERT_TRUE(std::isfinite(async_loss));
      ASSERT_EQ(sync_loss, async_loss) << "epoch " << epoch << " batch " << i;
    }
  }
  // reference_snapshot() and eval_model() synchronize first (fold the
  // pending round), so they reflect every dispatched round.
  const ParamSet sync_ref = sync_sys.reference_snapshot();
  const ParamSet async_ref = async_sys.reference_snapshot();
  EXPECT_EQ(max_abs_diff(sync_ref, async_ref), 0.0);
  EXPECT_GT(runtime::evaluate_accuracy(async_sys.eval_model(), loader, 0, 4),
            0.9);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, AvgPipeLagOneTest,
    ::testing::Values(
        LagOneSchedule{schedule::Kind::kAfab, 0, SyncPolicyKind::kElastic,
                       "AFAB"},
        LagOneSchedule{schedule::Kind::kOneFOneB, 0, SyncPolicyKind::kElastic,
                       "1F1B"},
        LagOneSchedule{schedule::Kind::kAdvanceForward, 3,
                       SyncPolicyKind::kElastic, "AFP_advance3"},
        LagOneSchedule{schedule::Kind::kAfab, 0, SyncPolicyKind::kBmuf,
                       "AFAB_bmuf"},
        LagOneSchedule{schedule::Kind::kOneFOneB, 0, SyncPolicyKind::kBmuf,
                       "1F1B_bmuf"},
        LagOneSchedule{schedule::Kind::kAdvanceForward, 3,
                       SyncPolicyKind::kBmuf, "AFP_advance3_bmuf"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(AvgPipeAsyncTest, LongLagKeepsEveryRoundPendingUntilItIsDue) {
  // Any lag works: the reference trails by min(t + 1, lag) rounds after
  // iteration t, and synchronize() folds the rest in one go.
  trace::Tracer tracer;
  AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 2;
  config.boundaries = {2};
  config.async_sync = true;
  config.sync_lag = 64;
  config.tracer = &tracer;
  AvgPipe system(mlp_factory(4, 8, 2, 2), sgd_factory(0.1), config);
  SyntheticFeatures ds(64, 4, 2, 3);
  DataLoader loader(ds, 8, 1);
  const std::size_t iters = 70;
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const double loss =
        system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
    EXPECT_TRUE(std::isfinite(loss)) << "iter " << iter;
  }
  const auto count_applies = [&tracer] {
    std::size_t applies = 0;
    for (const auto& ev : tracer.collect()) {
      if (ev.kind == trace::EventKind::kReferenceApply) ++applies;
    }
    return applies;
  };
  system.synchronize();
  const std::size_t applies = count_applies();
  system.synchronize();  // nothing left to fold
  EXPECT_EQ(count_applies(), applies);

  std::vector<double> lags;
  double folded = 0;
  for (const auto& ev : tracer.collect()) {
    if (ev.kind != trace::EventKind::kCounter) continue;
    if (ev.counter == trace::CounterId::kSyncLag) lags.push_back(ev.value);
    if (ev.counter == trace::CounterId::kSyncBatch) folded += ev.value;
  }
  ASSERT_EQ(lags.size(), iters);
  for (std::size_t t = 0; t < iters; ++t) {
    EXPECT_EQ(lags[t], static_cast<double>(std::min<std::size_t>(t + 1, 64)))
        << "iteration " << t;
  }
  // One fold per iteration from t = 64 on, then the drain of 64 rounds.
  EXPECT_EQ(applies, iters - config.sync_lag + 1);
  EXPECT_EQ(folded, static_cast<double>(iters));
}

TEST(AvgPipeAsyncTest, TracesSyncLagCounterAndOffCriticalPathPulls) {
  SyntheticFeatures ds(64, 4, 2, 3);
  DataLoader loader(ds, 8, 1);

  trace::Tracer tracer;
  AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 2;
  config.boundaries = {2};
  config.async_sync = true;
  config.sync_lag = 2;
  config.tracer = &tracer;
  AvgPipe system(mlp_factory(4, 8, 2, 2), sgd_factory(0.1), config);

  const std::size_t iters = 5;
  for (std::size_t iter = 0; iter < iters; ++iter) {
    system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
  }
  system.synchronize();  // idempotent: a second call must be a no-op
  system.synchronize();

  std::size_t lag_samples = 0, pulls = 0, applies = 0;
  double batched_rounds = 0;
  for (const auto& ev : tracer.collect()) {
    if (ev.kind == trace::EventKind::kCounter &&
        ev.counter == trace::CounterId::kSyncLag) {
      ++lag_samples;
      EXPECT_LE(ev.value, static_cast<double>(config.sync_lag));
      EXPECT_GE(ev.value, 0.0);
    }
    if (ev.kind == trace::EventKind::kCounter &&
        ev.counter == trace::CounterId::kSyncBatch) {
      batched_rounds += ev.value;
    }
    if (ev.kind == trace::EventKind::kElasticPull) ++pulls;
    if (ev.kind == trace::EventKind::kReferenceApply) ++applies;
  }
  // One lag sample per iteration; one pull per stage of every alive replica
  // per iteration (recorded by the stage threads, not the driver). The
  // driver folds one round per iteration from iteration L on, while the
  // stages train, and synchronize() folds the last L rounds as one batch:
  // iters - L + 1 apply spans whose batch sizes sum to the rounds dispatched.
  const std::size_t stages = config.boundaries.size() + 1;
  EXPECT_EQ(lag_samples, iters);
  EXPECT_EQ(pulls, config.num_pipelines * stages * iters);
  EXPECT_EQ(batched_rounds, static_cast<double>(iters));
  EXPECT_EQ(applies, iters - config.sync_lag + 1);
}

// -- elastic membership (fault tolerance) -----------------------------------------------

TEST(AvgPipeElasticTest, DetachRebalancesAlphaAndTrainingConverges) {
  // Drop one of three pipelines mid-training: α must rebalance to 1/(N-1)
  // and the survivors must still converge (the graceful-degradation claim).
  SyntheticFeatures ds(128, 6, 2, 5, /*noise=*/0.15);
  DataLoader loader(ds, 16, 3);

  AvgPipeConfig config;
  config.num_pipelines = 3;
  config.micro_batches = 2;
  config.boundaries = {2};
  AvgPipe system(mlp_factory(6, 12, 2, 2), sgd_factory(0.3), config);
  EXPECT_DOUBLE_EQ(system.alpha(), 1.0 / 3.0);

  auto batches_at = [&](std::size_t epoch, std::size_t i) {
    return std::vector<Batch>{loader.batch(epoch, i),
                              loader.batch(epoch, i + 1),
                              loader.batch(epoch, i + 2)};
  };
  system.train_iteration(batches_at(0, 0));

  system.detach_pipeline(2, "operator-killed for the test");
  EXPECT_EQ(system.alive_pipelines(), 2u);
  EXPECT_FALSE(system.pipeline_alive(2));
  EXPECT_EQ(system.health(2).failures, 1u);
  EXPECT_EQ(system.health(2).last_error, "operator-killed for the test");
  EXPECT_DOUBLE_EQ(system.alpha(), 0.5);  // 1 / N_alive

  // Training continues over the survivors; the dead pipeline's batch slot is
  // simply ignored.
  for (std::size_t epoch = 0; epoch < 10; ++epoch) {
    for (std::size_t i = 0; i + 2 < loader.batches_per_epoch(); i += 3) {
      const double loss = system.train_iteration(batches_at(epoch, i));
      EXPECT_TRUE(std::isfinite(loss));
    }
  }
  EXPECT_GT(runtime::evaluate_accuracy(system.eval_model(), loader, 0, 4),
            0.9);
}

TEST(AvgPipeElasticTest, LoneSurvivorMatchesSinglePipelineTrainer) {
  // After every peer dies, normalising by N_alive must leave the reference
  // exactly on the lone survivor's trajectory — i.e. the degraded system IS
  // a single-pipeline AvgPipe, not a wounded N-pipeline one.
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);

  AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 3;
  config.boundaries = {2};
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), config);
  system.detach_pipeline(1, "dead before the first batch");
  EXPECT_DOUBLE_EQ(system.alpha(), default_alpha(1));

  AvgPipeConfig lone_config = config;
  lone_config.num_pipelines = 1;
  AvgPipe lone(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), lone_config);
  for (std::size_t iter = 0; iter < 3; ++iter) {
    const Batch b = loader.batch(iter, 0);
    system.train_iteration({b, loader.batch(iter, 1)});  // slot 1 ignored
    lone.train_iteration({b});
  }
  const ParamSet sys_ref = system.reference_snapshot();
  const ParamSet lone_ref = lone.reference_snapshot();
  ASSERT_EQ(sys_ref.size(), lone_ref.size());
  for (std::size_t i = 0; i < sys_ref.size(); ++i) {
    EXPECT_LT(sys_ref[i].max_abs_diff(lone_ref[i]), 1e-9) << "tensor " << i;
  }
}

TEST(AvgPipeElasticTest, MidIterationFailureSurvivorPullsWithPreFailureAlpha) {
  // A pipeline that dies inside an iteration is detached only after every
  // pipeline has reported, and each survivor's local sync ran on its stage
  // threads with the alpha of the iteration's start (1/N, not 1/N_alive). With N = 2
  // and a kill at step 0, the survivor trains W0 to w and pulls halfway back:
  // its replica and the reference both land on (W0 + w) / 2. Only afterwards
  // does alpha rebalance to default_alpha(1). Lag 0 and async lag 1 agree.
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  const Batch b0 = loader.batch(0, 0);

  AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 3;
  config.boundaries = {2};
  config.sync_compression = SyncCompression{};  // exact transport

  // w: the survivor's trained weights, from a lone pipeline (alpha 0, so its
  // reference takes the trained replica unchanged).
  AvgPipeConfig lone_config = config;
  lone_config.num_pipelines = 1;
  AvgPipe lone(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), lone_config);
  lone.train_iteration({b0});
  const ParamSet trained = lone.reference_snapshot();

  for (const bool async_sync : {false, true}) {
    SCOPED_TRACE(async_sync ? "async lag 1" : "lag 0");
    fault::FaultPlan plan;
    fault::WorkerKill kill;
    kill.pipeline = 1;
    kill.step = 0;
    plan.kills.push_back(kill);
    AvgPipeConfig cfg = config;
    cfg.faults = &plan;
    cfg.async_sync = async_sync;
    cfg.sync_lag = 1;
    AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);
    const ParamSet initial = system.reference_snapshot();

    system.train_iteration({b0, loader.batch(0, 1)});
    EXPECT_FALSE(system.pipeline_alive(1));
    EXPECT_DOUBLE_EQ(system.alpha(), default_alpha(1));
    system.synchronize();
    const ParamSet ref = system.reference_snapshot();
    const ParamSet survivor = system.replica_snapshot(0);
    ASSERT_EQ(ref.size(), trained.size());
    double moved = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      Tensor mid = initial[i].clone();
      mid.axpy_(1.0, trained[i]);
      mid.scale_(0.5);
      EXPECT_LT(ref[i].max_abs_diff(mid), 1e-12) << "tensor " << i;
      EXPECT_LT(survivor[i].max_abs_diff(mid), 1e-12) << "tensor " << i;
      moved = std::max(moved, trained[i].max_abs_diff(initial[i]));
    }
    EXPECT_GT(moved, 1e-3);  // w differs from W0, so the midpoint is telling
  }
}

// -- quantized sync transport -----------------------------------------------------------

namespace {

bool env_forces_codec() {
  const std::string env = common::env_string("AVGPIPE_SYNC_COMPRESS", "");
  if (env.empty()) return false;
  SyncCompression forced;
  return parse_sync_compression(env, &forced) && forced.enabled();
}

SyncCompression int8_compression() {
  SyncCompression c;
  c.codec = tensor::Codec::kInt8;
  return c;
}

}  // namespace

TEST(SyncCompressionTest, OffModeIsBitIdenticalToDefaultPath) {
  // The parity anchor: a config that explicitly pins compression off must
  // follow the default (env-unset) config byte for byte — proving the codec
  // layer is absent from the sync path, not merely "small". Skipped when CI
  // forces a codec via env, because then the default config IS compressed.
  if (env_forces_codec()) {
    GTEST_SKIP() << "AVGPIPE_SYNC_COMPRESS forces a codec";
  }
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);

  AvgPipeConfig default_cfg;
  default_cfg.num_pipelines = 2;
  default_cfg.micro_batches = 3;
  default_cfg.boundaries = {2};
  AvgPipeConfig off_cfg = default_cfg;
  off_cfg.sync_compression = SyncCompression{};  // pinned off, env ignored

  AvgPipe default_sys(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), default_cfg);
  AvgPipe off_sys(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), off_cfg);

  for (std::size_t iter = 0; iter < 4; ++iter) {
    std::vector<Batch> batches{loader.batch(iter, 0), loader.batch(iter, 1)};
    const double default_loss = default_sys.train_iteration(batches);
    const double off_loss = off_sys.train_iteration(batches);
    EXPECT_DOUBLE_EQ(default_loss, off_loss) << "iter " << iter;
  }
  const ParamSet a = default_sys.reference_snapshot();
  const ParamSet b = off_sys.reference_snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].max_abs_diff(b[i]), 0.0) << "tensor " << i;
  }
}

TEST(SyncCompressionTest, CompressedThreadedMatchesTextbookRound) {
  // The textbook round must stay the model of the threaded system when both
  // pin the same codec: same transmission points (initial broadcast,
  // per-replica push, re-publish), same replica order.
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);

  AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 3;
  config.boundaries = {2};
  config.sync_compression = int8_compression();
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), config);
  TextbookAvgPipe oracle(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), 2, {},
                         int8_compression());

  for (std::size_t iter = 0; iter < 3; ++iter) {
    std::vector<Batch> batches{loader.batch(iter, 0), loader.batch(iter, 1)};
    system.train_iteration(batches);
    oracle.train_iteration(batches);
  }
  const ParamSet sys_ref = system.reference_snapshot();
  ASSERT_EQ(sys_ref.size(), oracle.reference().size());
  for (std::size_t i = 0; i < sys_ref.size(); ++i) {
    EXPECT_LT(sys_ref[i].max_abs_diff(oracle.reference()[i]), 1e-9)
        << "tensor " << i;
  }
}

TEST(SyncCompressionTest, Int8ErrorFeedbackConverges) {
  // The lossy trajectory must reach the same accuracy target as the exact
  // path: error feedback keeps the quantization noise from accumulating into
  // a bias.
  SyntheticFeatures ds(128, 6, 2, 3, /*noise=*/0.15);
  DataLoader loader(ds, 16, 7);
  AvgPipeConfig config = update_rule_config(2);
  config.sync_compression = int8_compression();
  AvgPipe avg(mlp_factory(6, 12, 2, 2), sgd_factory(0.3), config);
  double loss = 0.0;
  for (std::size_t epoch = 0; epoch < 10; ++epoch) {
    for (std::size_t i = 0; i + 1 < loader.batches_per_epoch(); i += 2) {
      loss = avg.train_iteration(
          {loader.batch(epoch, i), loader.batch(epoch, i + 1)});
      ASSERT_TRUE(std::isfinite(loss));
    }
  }
  EXPECT_GT(runtime::evaluate_accuracy(avg.eval_model(), loader, 0, 4), 0.9);
}

TEST(SyncCompressionTest, Fp16ConvergesOnThreadedSystem) {
  SyntheticFeatures ds(128, 6, 2, 5, /*noise=*/0.15);
  DataLoader loader(ds, 16, 3);

  AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 4;
  config.boundaries = {3};
  config.kind = schedule::Kind::kAdvanceForward;
  SyncCompression c;
  c.codec = tensor::Codec::kFp16;
  config.sync_compression = c;
  AvgPipe system(mlp_factory(6, 12, 2, 2), sgd_factory(0.3), config);

  for (std::size_t epoch = 0; epoch < 10; ++epoch) {
    for (std::size_t i = 0; i + 1 < loader.batches_per_epoch(); i += 2) {
      system.train_iteration(
          {loader.batch(epoch, i), loader.batch(epoch, i + 1)});
    }
  }
  EXPECT_GT(runtime::evaluate_accuracy(system.eval_model(), loader, 0, 4),
            0.9);
}

TEST(SyncCompressionTest, Int8TracesBytesMovedAndRatio) {
  // Every push and broadcast must record wire/raw byte counters, and the
  // derived ratio must clear the int8 design floor (1 byte + amortized
  // per-block scale vs 8-byte doubles => ~7.9x, gated at 3x).
  trace::Tracer tracer;
  AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 2;
  config.boundaries = {2};
  config.tracer = &tracer;
  config.sync_compression = int8_compression();
  AvgPipe system(mlp_factory(4, 8, 2, 2), sgd_factory(0.1), config);

  SyntheticFeatures ds(64, 4, 2, 3);
  DataLoader loader(ds, 8, 1);
  const std::size_t iters = 3;
  for (std::size_t iter = 0; iter < iters; ++iter) {
    system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
  }
  system.synchronize();

  trace::TraceAnalysis analysis(tracer.collect());
  EXPECT_GT(analysis.sync_bytes(), 0u);
  EXPECT_GT(analysis.sync_bytes_raw(), analysis.sync_bytes());
  EXPECT_GE(analysis.compression_ratio(), 3.0);
  EXPECT_LT(analysis.compression_ratio(), 8.0);  // can't beat 8 B -> 1 B
}

TEST(SyncCompressionTest, OffModeCountsRawBytesOfEveryPushAndBroadcast) {
  // Uncompressed sync still counts its bytes when traced: at lag 0 every
  // iteration moves N pushes and one broadcast of every f64 parameter,
  // wire == raw.
  trace::Tracer tracer;
  AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 2;
  config.boundaries = {2};
  config.tracer = &tracer;
  config.sync_compression = SyncCompression{};
  AvgPipe system(mlp_factory(4, 8, 2, 2), sgd_factory(0.1), config);

  SyntheticFeatures ds(64, 4, 2, 3);
  DataLoader loader(ds, 8, 1);
  const std::size_t iters = 3;
  for (std::size_t iter = 0; iter < iters; ++iter) {
    system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
  }

  std::uint64_t params = 0;
  for (const auto& t : system.replica_snapshot(0)) params += t.numel();
  trace::TraceAnalysis analysis(tracer.collect());
  const std::uint64_t expected = iters * (config.num_pipelines + 1) * params *
                                 sizeof(tensor::Scalar);
  EXPECT_EQ(analysis.sync_bytes(), expected);
  EXPECT_EQ(analysis.sync_bytes_raw(), expected);
  EXPECT_DOUBLE_EQ(analysis.compression_ratio(), 1.0);
}

TEST(SyncCompressionTest, EnvParsingAndPrecedence) {
  SyncCompression c;
  EXPECT_TRUE(parse_sync_compression("off", &c));
  EXPECT_FALSE(c.enabled());
  EXPECT_TRUE(parse_sync_compression("none", &c));
  EXPECT_FALSE(c.enabled());
  EXPECT_TRUE(parse_sync_compression("fp16", &c));
  EXPECT_EQ(c.codec, tensor::Codec::kFp16);
  EXPECT_TRUE(parse_sync_compression("int8", &c));
  EXPECT_EQ(c.codec, tensor::Codec::kInt8);
  EXPECT_FALSE(parse_sync_compression("zstd", &c));
}

TEST(SyncCompressionTest, FlatSetTransmitsLikeItsPerTensorClone) {
  // The codec's residual passes run once per shard and its quantization
  // view by view, so a flat set and a per-tensor copy of it must decode to
  // the same values with the same residuals and byte counts.
  Rng rng(17);
  const ParamSet like{Tensor::randn({5}, rng), Tensor::randn({3, 100}, rng),
                      Tensor::randn({261}, rng)};
  for (const tensor::Codec codec :
       {tensor::Codec::kInt8, tensor::Codec::kFp16}) {
    SCOPED_TRACE(tensor::to_string(codec));
    ParamSet flat = tensor::flat_zeros(like);
    copy_into(flat, like);
    ParamSet split;
    for (const Tensor& t : like) split.push_back(t.clone());
    SyncCodec flat_codec({codec}), split_codec({codec});
    for (int round = 0; round < 3; ++round) {
      for (std::size_t j = 0; j < like.size(); ++j) {
        const Tensor noise = Tensor::randn(like[j].shape(), rng);
        flat[j].axpy_(1.0, noise);
        split[j].axpy_(1.0, noise);
      }
      const auto a = flat_codec.transmit(flat);
      const auto b = split_codec.transmit(split);
      EXPECT_EQ(a.raw_bytes, b.raw_bytes);
      EXPECT_EQ(a.wire_bytes, b.wire_bytes);
      EXPECT_EQ(max_abs_diff(flat, split), 0.0) << "round " << round;
      EXPECT_EQ(max_abs_diff(flat_codec.residuals(), split_codec.residuals()),
                0.0)
          << "round " << round;
    }
    // The flat stream's residuals share its layout: one shard, zero gaps.
    const ParamSet& r = flat_codec.residuals();
    EXPECT_EQ(tensor::shard_end(r, 0), r.size());
    const auto all = tensor::run_span(std::span(r), 0, r.size());
    const auto gap = all.subspan(5, 3);  // after the 5-element first view
    EXPECT_TRUE(std::ranges::all_of(gap, [](double x) { return x == 0.0; }));
  }
}

TEST(AvgPipeElasticTest, RejoinRestoresAlphaAndEmitsTraceEvents) {
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);

  trace::Tracer tracer;
  AvgPipeConfig config;
  config.num_pipelines = 3;
  config.micro_batches = 2;
  config.boundaries = {2};
  config.tracer = &tracer;
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), config);

  auto iter_batches = [&](std::size_t iter) {
    return std::vector<Batch>{loader.batch(iter, 0), loader.batch(iter, 1),
                              loader.batch(iter, 2)};
  };
  system.train_iteration(iter_batches(0));
  system.detach_pipeline(1, "transient node failure");
  EXPECT_DOUBLE_EQ(system.alpha(), 0.5);
  system.train_iteration(iter_batches(1));

  system.rejoin_pipeline(1);
  EXPECT_TRUE(system.pipeline_alive(1));
  EXPECT_EQ(system.alive_pipelines(), 3u);
  EXPECT_DOUBLE_EQ(system.alpha(), 1.0 / 3.0);
  EXPECT_TRUE(system.health(1).last_error.empty());
  system.train_iteration(iter_batches(2));

  trace::TraceAnalysis analysis(tracer.collect());
  const auto recoveries = analysis.recoveries();
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_EQ(recoveries[0].pipeline, 1u);
  EXPECT_TRUE(recoveries[0].rejoined);

  // The alive-pipelines counter must sample 2 at the crash and 3 again at
  // the rejoin.
  std::vector<double> alive_samples;
  for (const auto& ev : analysis.events()) {
    if (ev.kind == trace::EventKind::kCounter &&
        ev.counter == trace::CounterId::kAlivePipelines) {
      alive_samples.push_back(ev.value);
    }
  }
  ASSERT_EQ(alive_samples.size(), 2u);
  EXPECT_DOUBLE_EQ(alive_samples[0], 2.0);
  EXPECT_DOUBLE_EQ(alive_samples[1], 3.0);
}

TEST(AvgPipeElasticTest, FaultPlanDrivesCrashAndRejoinBySteps) {
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);

  fault::FaultPlan plan;
  fault::PipelineCrash crash;
  crash.pipeline = 1;
  crash.crash_at_step = 1;   // detach before iteration 1
  crash.rejoin_at_step = 3;  // rejoin before iteration 3
  plan.crashes.push_back(crash);

  trace::Tracer tracer;
  AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 3;
  config.boundaries = {2};
  config.tracer = &tracer;
  config.faults = &plan;
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), config);

  for (std::size_t iter = 0; iter < 5; ++iter) {
    system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
    if (iter >= 1 && iter < 3) {
      EXPECT_EQ(system.alive_pipelines(), 1u) << "iter " << iter;
    } else {
      EXPECT_EQ(system.alive_pipelines(), 2u) << "iter " << iter;
    }
  }
  EXPECT_DOUBLE_EQ(system.alpha(), 0.5);
  EXPECT_EQ(system.health(1).failures, 1u);

  trace::TraceAnalysis analysis(tracer.collect());
  const auto recoveries = analysis.recoveries();
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_TRUE(recoveries[0].rejoined);
}

TEST(AvgPipeElasticTest, UntracedKillFindsItsPipeline) {
  // Fault plans address pipelines by index whether or not the run is
  // traced: killing pipeline 0 detaches pipeline 0 and nothing else.
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  fault::FaultPlan plan;
  fault::WorkerKill kill;
  kill.pipeline = 0;
  kill.step = 0;
  plan.kills.push_back(kill);
  AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 2;
  config.boundaries = {2};
  config.faults = &plan;
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), config);

  const double loss =
      system.train_iteration({loader.batch(0, 0), loader.batch(0, 1)});
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_FALSE(system.pipeline_alive(0));
  EXPECT_TRUE(system.pipeline_alive(1));
  EXPECT_NE(system.health(0).last_error.find("injected worker kill"),
            std::string::npos);
}

TEST(AvgPipeElasticTest, DetachingEveryPipelineMakesTrainingThrow) {
  AvgPipeConfig config;
  config.num_pipelines = 2;
  config.boundaries = {};
  AvgPipe system(mlp_factory(4, 6, 1, 2), sgd_factory(0.1), config);
  system.detach_pipeline(0, "gone");
  system.detach_pipeline(1, "also gone");
  EXPECT_EQ(system.alive_pipelines(), 0u);
  Batch b{Tensor({4, 4}), {0, 1, 0, 1}};
  EXPECT_THROW(system.train_iteration({b, b}), Error);
}

TEST(AvgPipeElasticTest, DetachAndRejoinAreIdempotent) {
  AvgPipeConfig config;
  config.num_pipelines = 2;
  config.boundaries = {};
  AvgPipe system(mlp_factory(4, 6, 1, 2), sgd_factory(0.1), config);
  system.rejoin_pipeline(0);  // already alive: no-op
  EXPECT_EQ(system.alive_pipelines(), 2u);
  system.detach_pipeline(0, "x");
  system.detach_pipeline(0, "x again");  // already dead: no-op
  EXPECT_EQ(system.health(0).failures, 1u);
  EXPECT_EQ(system.alive_pipelines(), 1u);
}

}  // namespace

/// Reads the layout of an AvgPipe's flat sets.
struct AvgPipeTestPeer {
  /// Each stage's views in `set` are one shard in a buffer of their own:
  /// no other stage shares it, every view starts on a 64-byte boundary and
  /// the gaps between views are zero.
  static void expect_stage_shards(const AvgPipe& system, const ParamSet& set,
                                  const std::string& what) {
    SCOPED_TRACE(what);
    const auto& stages = system.replicas_[0]->stages;
    ASSERT_GT(stages.size(), 1u);
    for (std::size_t k = 0; k < stages.size(); ++k) {
      const std::size_t first = stages[k].first, last = first + stages[k].size;
      EXPECT_EQ(tensor::shard_end(set, first), last) << "stage " << k;
      if (last < set.size()) {
        EXPECT_FALSE(set[last].aliases(set[first]));
      }
      std::vector<char> covered(set[last - 1].offset() +
                                    set[last - 1].numel() - set[first].offset(),
                                0);
      for (std::size_t j = first; j < last; ++j) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(set[j].data().data()) % 64,
                  0u)
            << "view " << j;
        const std::size_t at = set[j].offset() - set[first].offset();
        std::fill_n(covered.begin() + static_cast<std::ptrdiff_t>(at),
                    set[j].numel(), 1);
      }
      const auto span = tensor::run_span(std::span(set), first, last);
      for (std::size_t e = 0; e < span.size(); ++e) {
        if (!covered[e]) {
          EXPECT_EQ(span[e], 0.0) << "stage " << k << " gap";
        }
      }
    }
  }

  static void expect_flat_layout(AvgPipe& system) {
    common::RoleGuard ref_role(reference_capability());  // single-threaded
    for (std::size_t i = 0; i < system.num_pipelines(); ++i) {
      AvgPipe::Replica& r = *system.replicas_[i];
      const std::string p = "pipeline " + std::to_string(i);
      expect_stage_shards(system, r.params, p + " params");
      // The model trains on the views themselves.
      auto live = r.model.parameters();
      for (std::size_t j = 0; j < live.size(); ++j) {
        EXPECT_EQ(live[j].value().data().data(), r.params[j].data().data());
      }
      for (std::size_t slot = 0; slot < r.ring.size(); ++slot) {
        expect_stage_shards(system, r.ring[slot],
                            p + " ring slot " + std::to_string(slot));
      }
      expect_stage_shards(system, r.residuals, p + " push residuals");
    }
    expect_stage_shards(system, system.reference_->params(), "reference");
    expect_stage_shards(system, system.broadcast_, "broadcast");
    expect_stage_shards(system, system.broadcast_codec_.residuals(),
                        "broadcast residuals");
  }
};

namespace {

TEST(AvgPipeLayoutTest, OneAlignedBufferPerStageShardWithZeroGaps) {
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  for (const SyncPolicyKind kind :
       {SyncPolicyKind::kElastic, SyncPolicyKind::kBmuf}) {
    SCOPED_TRACE(to_string(kind));
    AvgPipeConfig config;
    config.num_pipelines = 2;
    config.micro_batches = 3;
    config.boundaries = {2};
    config.async_sync = true;
    config.sync_lag = 2;
    config.sync.kind = kind;
    config.sync_compression = int8_compression();
    AvgPipe system(mlp_factory(6, 9, 2, 3), sgd_factory(0.1), config);
    AvgPipeTestPeer::expect_flat_layout(system);
    for (std::size_t iter = 0; iter < 4; ++iter) {
      system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
    }
    system.synchronize();
    AvgPipeTestPeer::expect_flat_layout(system);
  }
}

}  // namespace
}  // namespace avgpipe::core
