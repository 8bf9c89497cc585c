#include "core/sync_policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/avgpipe.hpp"
#include "core/scenario_matrix.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "tensor/arena.hpp"
#include "test_util.hpp"
#include "trace/analysis.hpp"

namespace avgpipe::core {
namespace {

using data::Batch;
using data::DataLoader;
using data::SyntheticFeatures;
using tensor::Tensor;
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

std::string kind_name(const ::testing::TestParamInfo<SyncPolicyKind>& info) {
  return to_string(info.param);
}

// -- construction & configuration -------------------------------------------------------

TEST(SyncPolicyTest, FactoryBuildsEveryKindWithMatchingName) {
  for (const SyncPolicyKind kind : all_sync_policies()) {
    SyncPolicyConfig config;
    config.kind = kind;
    auto policy = make_sync_policy(config);
    EXPECT_EQ(policy->kind(), kind);
    EXPECT_EQ(policy->name(), to_string(kind));
  }
}

TEST(SyncPolicyTest, ShardHooksAndBroadcastWriteIntoAllocateNothing) {
  // The stage-side hooks and the write-into broadcast run every round on
  // the hot path: once their buffers exist they must not touch the arena.
  nn::Sequential model = nn::make_mlp(4, 8, 2, 2, 1234);
  auto params = model.parameters();
  for (const SyncPolicyKind kind : all_sync_policies()) {
    SCOPED_TRACE(to_string(kind));
    SyncPolicyConfig cfg;
    cfg.kind = kind;
    const auto policy = make_sync_policy(cfg);
    ReferenceModel reference(clone_values(params));
    common::RoleGuard role(reference_capability());  // single-threaded
    // One round first, so BMUF's block momentum exists.
    ParamSet broadcast = policy->make_broadcast(reference);
    std::vector<std::vector<ParamSet>> rounds(1);
    rounds[0].push_back(policy->local_sync(params, broadcast, 0.5));
    policy->apply_rounds(reference, rounds);

    // A shard: the second half of the parameter list.
    const std::size_t first = params.size() / 2;
    ParamSet values = values_of(params);
    const std::span<Tensor> shard = std::span<Tensor>(values).subspan(first);
    const std::span<const Tensor> from =
        std::span<const Tensor>(broadcast).subspan(first);
    ParamSet out = tensor::zeros_like(shard);
    const std::uint64_t before = tensor::arena::stats().acquires;
    policy->begin_round(shard, from);
    policy->local_sync(shard, from, 0.5, out);
    policy->make_broadcast(reference, broadcast);
    EXPECT_EQ(tensor::arena::stats().acquires - before, 0u);
  }
}

TEST(SyncPolicyTest, BmufStabilityConditionIsEnforcedAtConstruction) {
  // CBM stability: λ = ζ/(1−η) must not exceed 1 (Chen & Huo 2016, eq. 6).
  EXPECT_THROW(optim::BlockMomentum(0.5, 0.8), Error);  // λ = 1.6
  EXPECT_THROW(optim::BlockMomentum(1.0, 0.1), Error);  // η must be < 1
  EXPECT_THROW(optim::BlockMomentum(-0.1, 0.5), Error);
  EXPECT_THROW(optim::BlockMomentum(0.5, 0.0), Error);  // ζ must be > 0
  EXPECT_NO_THROW(optim::BlockMomentum(0.5, 0.5));      // λ = 1 exactly
  EXPECT_NO_THROW(optim::BlockMomentum(0.0, 1.0));      // degenerate config

  // Policy construction sets ζ = 1−η, exactly at the bound: any η in [0,1)
  // is allowed and an out-of-range η is still rejected.
  SyncPolicyConfig config;
  config.kind = SyncPolicyKind::kBmuf;
  config.block_momentum = 0.5;
  EXPECT_NO_THROW(make_sync_policy(config));
  config.block_momentum = 1.0;
  EXPECT_THROW(make_sync_policy(config), Error);
  config.block_momentum = -0.1;
  EXPECT_THROW(make_sync_policy(config), Error);
}

TEST(SyncPolicyTest, BlockMomentumEffectiveLrMatchesFormula) {
  EXPECT_DOUBLE_EQ(optim::BlockMomentum::effective_lr(0.5, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(optim::BlockMomentum::effective_lr(0.0, 1.0), 1.0);
}

// -- degenerate bit-parity (the gate making policies comparable) ------------------------

class SyncPolicyParityTest : public ::testing::TestWithParam<SyncPolicyKind> {};

TEST_P(SyncPolicyParityTest, DegenerateConfigAtNOneIsBitIdenticalToSerialSgd) {
  // Every policy at N = 1 in its degenerate configuration must track a bare
  // PipelineRuntime (serial pipelined SGD, same partitioning and
  // micro-batching) bit-for-bit: same per-step losses (EXPECT_DOUBLE_EQ) and
  // max-abs parameter delta exactly 0.0. This is what makes the scenario
  // matrix's cross-policy accuracy numbers comparable.
  const SyncPolicyKind kind = GetParam();
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);

  AvgPipeConfig cfg;
  cfg.num_pipelines = 1;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  cfg.sync = degenerate_config(kind);
  // Bit parity with serial SGD holds only for lossless transport (BSP/BMUF
  // restart from the broadcast).
  cfg.sync_compression = SyncCompression{};
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);

  nn::Sequential serial_model = mlp_factory(6, 8, 2, 2)(1234);
  runtime::PipelineRuntime serial(serial_model, cfg.boundaries,
                                  sgd_factory(0.1),
                                  runtime::cross_entropy_loss(),
                                  {.kind = cfg.kind,
                                   .advance_num = cfg.advance_num,
                                   .micro_batches = cfg.micro_batches});

  for (std::size_t iter = 0; iter < 4; ++iter) {
    const Batch b = loader.batch(iter, 0);
    const double system_loss = system.train_iteration({b});
    const double serial_loss = serial.train_batch(b).loss;
    EXPECT_DOUBLE_EQ(system_loss, serial_loss) << "iter " << iter;
  }
  const double delta = max_abs_diff(system.replica_snapshot(0),
                                    clone_values(serial_model.parameters()));
  EXPECT_EQ(delta, 0.0);
}

TEST_P(SyncPolicyParityTest, RunParityAgreesWithTheGate) {
  MatrixSpec spec;
  spec.parity_steps = 3;
  const PolicyParity parity = run_parity(spec, GetParam());
  EXPECT_TRUE(parity.ok);
  EXPECT_EQ(parity.param_delta, 0.0);
  EXPECT_EQ(parity.loss_delta, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SyncPolicyParityTest,
                         ::testing::ValuesIn(all_sync_policies()), kind_name);

// -- threaded system vs the textbook serial round -----------------------------------------

class SyncPolicyTrajectoryTest
    : public ::testing::TestWithParam<SyncPolicyKind> {};

TEST_P(SyncPolicyTrajectoryTest, SystemMatchesTextbookRoundTrajectory) {
  // For the coupling-only policies the threaded system and the textbook
  // round must agree, under whatever codec the environment resolves (XPipe
  // adds runtime-side weight prediction the textbook round lacks, so it is
  // excluded here).
  const SyncPolicyKind kind = GetParam();
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);

  SyncPolicyConfig sync;
  sync.kind = kind;
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  cfg.sync = sync;
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);
  testutil::TextbookAvgPipe oracle(mlp_factory(6, 8, 2, 2), sgd_factory(0.1),
                                   2, sync, system.sync_compression());

  for (std::size_t iter = 0; iter < 3; ++iter) {
    std::vector<Batch> batches{loader.batch(iter, 0), loader.batch(iter, 1)};
    system.train_iteration(batches);
    oracle.train_iteration(batches);
  }
  EXPECT_LT(max_abs_diff(system.reference_snapshot(), oracle.reference()),
            1e-9);
  // The broadcast reconstruction must agree too (for BMUF this is the
  // Nesterov restart point, not the raw reference weights).
  EXPECT_LT(max_abs_diff(system.broadcast_snapshot(),
                         oracle.broadcast_snapshot()),
            1e-9);
}

INSTANTIATE_TEST_SUITE_P(CouplingPolicies, SyncPolicyTrajectoryTest,
                         ::testing::Values(SyncPolicyKind::kElastic,
                                           SyncPolicyKind::kBsp,
                                           SyncPolicyKind::kBmuf),
                         kind_name);

// -- BSP ---------------------------------------------------------------------------------

TEST(BspPolicyTest, ReferenceIsExactMeanAndReplicasRestartFromIt) {
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 1;
  cfg.sync.kind = SyncPolicyKind::kBsp;
  // Exact mean of the trained replicas: only lossless pushes deliver it.
  cfg.sync_compression = SyncCompression{};
  AvgPipe avg(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);

  for (std::size_t iter = 0; iter < 3; ++iter) {
    avg.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
    const ParamSet ref = avg.reference_snapshot();
    const ParamSet r0 = avg.replica_snapshot(0);
    const ParamSet r1 = avg.replica_snapshot(1);
    for (std::size_t t = 0; t < ref.size(); ++t) {
      Tensor mean(ref[t].shape());
      mean.axpy_(0.5, r0[t]);
      mean.axpy_(0.5, r1[t]);
      EXPECT_LT(mean.max_abs_diff(ref[t]), 1e-12) << "tensor " << t;
    }
  }
}

// -- BMUF --------------------------------------------------------------------------------

TEST(BmufPolicyTest, BroadcastIsNesterovRestartPointNotRawWeights) {
  // After at least one filtered apply, the broadcast must carry the η·Δ
  // lookahead on top of the reference weights.
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  SyncPolicyConfig sync;
  sync.kind = SyncPolicyKind::kBmuf;
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  cfg.sync = sync;
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);

  for (std::size_t iter = 0; iter < 2; ++iter) {
    system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
  }
  const ParamSet reference = system.reference_snapshot();
  const ParamSet broadcast = system.broadcast_snapshot();
  EXPECT_GT(max_abs_diff(reference, broadcast), 0.0);
}

TEST(BmufPolicyTest, RejoinRestoresTheNesterovRestartPoint) {
  // Regression for the rejoin path: a rejoining pipeline must receive the
  // policy's broadcast reconstruction (W + η·Δ under BMUF), not the raw
  // reference weights — otherwise it restarts one momentum step behind its
  // peers, which all begin the round from the restart point.
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  SyncPolicyConfig sync;
  sync.kind = SyncPolicyKind::kBmuf;
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  cfg.sync = sync;
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);

  system.train_iteration({loader.batch(0, 0), loader.batch(0, 1)});
  system.detach_pipeline(1, "transient failure");
  system.train_iteration({loader.batch(1, 0), loader.batch(1, 1)});
  system.rejoin_pipeline(1);

  const ParamSet restored = system.replica_snapshot(1);
  const ParamSet broadcast = system.broadcast_snapshot();
  const ParamSet reference = system.reference_snapshot();
  EXPECT_EQ(max_abs_diff(restored, broadcast), 0.0);
  EXPECT_GT(max_abs_diff(restored, reference), 0.0);

  // And training continues healthily after the rejoin.
  const double loss =
      system.train_iteration({loader.batch(2, 0), loader.batch(2, 1)});
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(BmufPolicyTest, ConvergesOnSeparableData) {
  SyntheticFeatures ds(128, 6, 2, 5, /*noise=*/0.15);
  DataLoader loader(ds, 16, 3);
  SyncPolicyConfig sync;
  sync.kind = SyncPolicyKind::kBmuf;
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 4;
  cfg.boundaries = {3};
  cfg.sync = sync;
  AvgPipe system(mlp_factory(6, 12, 2, 2), sgd_factory(0.3), cfg);
  for (std::size_t epoch = 0; epoch < 10; ++epoch) {
    for (std::size_t i = 0; i + 1 < loader.batches_per_epoch(); i += 2) {
      system.train_iteration(
          {loader.batch(epoch, i), loader.batch(epoch, i + 1)});
    }
  }
  EXPECT_GT(runtime::evaluate_accuracy(system.eval_model(), loader, 0, 4),
            0.9);
}

// -- trace integration -------------------------------------------------------------------

TEST(SyncPolicyTraceTest, BeginPoliciesEmitPolicyBroadcastSpans) {
  SyntheticFeatures ds(64, 4, 2, 3);
  DataLoader loader(ds, 8, 1);

  trace::Tracer tracer;
  SyncPolicyConfig sync;
  sync.kind = SyncPolicyKind::kBsp;
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 2;
  cfg.boundaries = {2};
  cfg.async_sync = true;
  cfg.sync_lag = 1;
  cfg.tracer = &tracer;
  cfg.sync = sync;
  AvgPipe system(mlp_factory(4, 8, 2, 2), sgd_factory(0.1), cfg);

  const std::size_t iters = 4;
  for (std::size_t iter = 0; iter < iters; ++iter) {
    system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
  }
  system.synchronize();

  std::size_t broadcasts = 0, pulls = 0, applies = 0;
  double batched_rounds = 0;
  for (const auto& ev : tracer.collect()) {
    if (ev.kind == trace::EventKind::kPolicyBroadcast) ++broadcasts;
    if (ev.kind == trace::EventKind::kElasticPull) ++pulls;
    if (ev.kind == trace::EventKind::kReferenceApply) ++applies;
    if (ev.kind == trace::EventKind::kCounter &&
        ev.counter == trace::CounterId::kSyncBatch) {
      batched_rounds += ev.value;
    }
  }
  // One broadcast reset per stage of every alive replica per iteration; the
  // local-sync and reference-apply counting of the elastic protocol is
  // policy-independent. At lag 1 the driver folds round t - 1 while round t
  // trains and synchronize() folds the last round: iters - 1 + 1 apply
  // spans whose batch sizes sum to the rounds dispatched.
  const std::size_t shards = cfg.num_pipelines * (cfg.boundaries.size() + 1);
  EXPECT_EQ(broadcasts, shards * iters);
  EXPECT_EQ(pulls, shards * iters);
  EXPECT_EQ(batched_rounds, static_cast<double>(iters));
  EXPECT_EQ(applies, iters - cfg.sync_lag + 1);
}

TEST(SyncPolicyTraceTest, XPipeEmitsWeightPredictionSpansAndConverges) {
  SyntheticFeatures ds(128, 6, 2, 5, /*noise=*/0.15);
  DataLoader loader(ds, 16, 3);

  trace::Tracer tracer;
  SyncPolicyConfig sync;
  sync.kind = SyncPolicyKind::kXPipe;
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 4;
  cfg.boundaries = {3};
  cfg.tracer = &tracer;
  cfg.sync = sync;
  AvgPipe system(mlp_factory(6, 12, 2, 2), sgd_factory(0.3), cfg);

  for (std::size_t epoch = 0; epoch < 10; ++epoch) {
    for (std::size_t i = 0; i + 1 < loader.batches_per_epoch(); i += 2) {
      system.train_iteration(
          {loader.batch(epoch, i), loader.batch(epoch, i + 1)});
    }
  }
  std::size_t predictions = 0;
  for (const auto& ev : tracer.collect()) {
    if (ev.kind == trace::EventKind::kWeightPrediction) ++predictions;
  }
  // The first batch of each stage has no Δ̂ yet (no span); after that every
  // (stage, batch) predicts.
  EXPECT_GT(predictions, 0u);
  EXPECT_GT(runtime::evaluate_accuracy(system.eval_model(), loader, 0, 4),
            0.9);
}

// -- scenario matrix (tier-1 smoke) ------------------------------------------------------

TEST(ScenarioMatrixTest, TinyMatrixProducesCompleteJson) {
  // 2 policies × 2 scenarios, a few steps: the full pipeline of the bench —
  // parity gate, every cell trains and stays finite, JSON schema fields
  // present — at tier-1 cost.
  MatrixSpec spec;
  spec.policies = {SyncPolicyKind::kElastic, SyncPolicyKind::kBmuf};
  spec.scenarios = {fault::ScenarioKind::kClean,
                    fault::ScenarioKind::kCrashRejoin};
  spec.steps = 6;
  spec.eval_every = 2;
  spec.parity_steps = 2;
  spec.elastic_codecs = {tensor::Codec::kInt8};
  const MatrixResult result = run_matrix(spec);

  EXPECT_TRUE(result.parity_ok);
  EXPECT_EQ(result.parity_delta, 0.0);
  ASSERT_EQ(result.parity.size(), 2u);
  // 2 policies x 2 scenarios, plus an elastic[int8] row over both scenarios.
  ASSERT_EQ(result.cells.size(), 6u);
  for (const CellResult& cell : result.cells) {
    EXPECT_TRUE(cell.finite);
    EXPECT_TRUE(std::isfinite(cell.final_loss));
    EXPECT_GT(cell.wall_seconds, 0.0);
    EXPECT_FALSE(cell.label.empty());
    if (cell.codec == tensor::Codec::kInt8) {
      EXPECT_EQ(cell.label, "elastic[int8]");
      EXPECT_GE(cell.sync_ratio, 3.0);
    } else {
      EXPECT_DOUBLE_EQ(cell.sync_ratio, 1.0);
    }
  }

  std::ostringstream os;
  write_matrix_json(result, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"avgpipe-sync-policy-matrix-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"epochs_to_target\""), std::string::npos);
  EXPECT_NE(json.find("\"parity_ok\": true"), std::string::npos);
  EXPECT_NE(json.find("\"crash_rejoin\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"elastic[int8]\""), std::string::npos);
  EXPECT_NE(json.find("\"sync_ratio\""), std::string::npos);
}

TEST(ScenarioMatrixTest, SinglePipelineMatrixSkipsCrashRejoin) {
  MatrixSpec spec;
  spec.policies = {SyncPolicyKind::kElastic};
  spec.pipelines = 1;
  spec.steps = 2;
  spec.parity_steps = 1;
  spec.elastic_codecs = {};  // membership logic under test, not codecs
  const MatrixResult result = run_matrix(spec);
  // kClean, kStragglers, kDegradedLinks — kCrashRejoin needs >= 2 pipelines.
  EXPECT_EQ(result.cells.size(), 3u);
  for (const CellResult& cell : result.cells) {
    EXPECT_NE(cell.scenario, fault::ScenarioKind::kCrashRejoin);
  }
}

}  // namespace
}  // namespace avgpipe::core
