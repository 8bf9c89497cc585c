#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/synthetic.hpp"
#include "fault/shim.hpp"
#include "nn/models.hpp"
#include "partition/partitioner.hpp"
#include "runtime/pipeline_runtime.hpp"
#include "sim/simulator.hpp"
#include "tensor/ops.hpp"
#include "trace/analysis.hpp"
#include "trace/trace.hpp"
#include "workloads/cluster.hpp"
#include "workloads/profile.hpp"

namespace avgpipe::fault {
namespace {

// -- plan queries -------------------------------------------------------------------

TEST(FaultPlanTest, EmptyPlanMatchesNothing) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_DOUBLE_EQ(plan.compute_factor(0, 0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.straggler_factor(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(plan.send_delay(0, 0), 0.0);
  EXPECT_FALSE(plan.should_drop(0, 0, 0, 42, 0, nullptr));
  EXPECT_EQ(plan.crash_for(0), nullptr);
}

TEST(FaultPlanTest, StragglerWindowsComposeMultiplicatively) {
  FaultPlan plan;
  plan.stragglers.push_back({0, kAny, 2.0, 1.0, 3.0, 0, kNoStepLimit});
  plan.stragglers.push_back({kAny, 1, 1.5, 0.0, kForever, 0, kNoStepLimit});
  EXPECT_DOUBLE_EQ(plan.compute_factor(0, 0, 0.5), 1.0);   // before window
  EXPECT_DOUBLE_EQ(plan.compute_factor(0, 0, 2.0), 2.0);   // inside window
  EXPECT_DOUBLE_EQ(plan.compute_factor(0, 1, 2.0), 3.0);   // both stack
  EXPECT_DOUBLE_EQ(plan.compute_factor(1, 1, 2.0), 1.5);   // wrong pipeline
  EXPECT_DOUBLE_EQ(plan.compute_factor(0, 0, 3.0), 1.0);   // t_end exclusive
}

TEST(FaultPlanTest, StepWindowsGateRuntimeQueries) {
  FaultPlan plan;
  StragglerFault s;
  s.factor = 4.0;
  s.step_begin = 2;
  s.step_end = 5;
  plan.stragglers.push_back(s);
  EXPECT_DOUBLE_EQ(plan.straggler_factor(0, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(plan.straggler_factor(0, 0, 2), 4.0);
  EXPECT_DOUBLE_EQ(plan.straggler_factor(0, 0, 4), 4.0);
  EXPECT_DOUBLE_EQ(plan.straggler_factor(0, 0, 5), 1.0);
}

TEST(FaultPlanTest, DropOutcomeIsDeterministicInSeedKeyAttempt) {
  FaultPlan plan;
  plan.seed = 7;
  MessageDrop d;
  d.probability = 0.5;
  plan.drops.push_back(d);

  // The same (key, attempt) must decide identically on every call: drop
  // randomness is stateless hashing, never a shared RNG.
  for (int key = 0; key < 64; ++key) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const bool a = plan.should_drop(0, 0, 0, key, attempt, nullptr);
      const bool b = plan.should_drop(0, 0, 0, key, attempt, nullptr);
      EXPECT_EQ(a, b);
    }
  }

  // With p=0.5 over 64 keys, both outcomes must occur (astronomically
  // unlikely otherwise), and a different seed must change the pattern.
  int dropped = 0, changed = 0;
  FaultPlan other = plan;
  other.seed = 8;
  for (int key = 0; key < 64; ++key) {
    const bool a = plan.should_drop(0, 0, 0, key, 0, nullptr);
    dropped += a ? 1 : 0;
    changed += a != other.should_drop(0, 0, 0, key, 0, nullptr) ? 1 : 0;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_LT(dropped, 64);
  EXPECT_GT(changed, 0);
}

TEST(FaultPlanTest, DropCountRespectsMaxDropsCap) {
  FaultPlan plan;
  MessageDrop d;
  d.probability = 1.0;  // every attempt lost...
  d.max_drops = 3;      // ...but the simulator caps the consecutive losses
  d.retry_timeout = 0.25;
  plan.drops.push_back(d);
  Seconds penalty = 0;
  EXPECT_EQ(plan.drop_count(0, 0, 0, 0, LinkDir::kActivation, &penalty), 3u);
  EXPECT_DOUBLE_EQ(penalty, 0.25);
}

TEST(FaultPlanTest, MessageKeyDistinguishesIdentityFields) {
  const std::uint64_t base = message_key(1, 2, 3, LinkDir::kActivation);
  EXPECT_NE(base, message_key(2, 2, 3, LinkDir::kActivation));
  EXPECT_NE(base, message_key(1, 3, 3, LinkDir::kActivation));
  EXPECT_NE(base, message_key(1, 2, 4, LinkDir::kActivation));
  EXPECT_NE(base, message_key(1, 2, 3, LinkDir::kGradient));
  EXPECT_EQ(base, message_key(1, 2, 3, LinkDir::kActivation));
}

TEST(BackoffTest, DoublesUntilCapAndExhaustsDeadline) {
  Backoff b(0.1, 0.4, 1.0);
  EXPECT_TRUE(b.can_retry());
  EXPECT_DOUBLE_EQ(b.next_timeout(), 0.1);
  EXPECT_DOUBLE_EQ(b.next_timeout(), 0.2);
  EXPECT_DOUBLE_EQ(b.next_timeout(), 0.4);
  EXPECT_DOUBLE_EQ(b.next_timeout(), 0.3);  // clamped to remaining budget
  EXPECT_FALSE(b.can_retry());
  EXPECT_EQ(b.attempts(), 4u);
}

// -- JSON round trip ----------------------------------------------------------------

TEST(FaultPlanJsonTest, RoundTripPreservesEveryField) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.stragglers.push_back({1, 0, 2.5, 3.0, 9.0, 2, 7});
  LinkDegradation ld;
  ld.link = 0;
  ld.bandwidth_factor = 0.25;
  ld.extra_latency = 0.01;
  ld.t_begin = 1.0;
  ld.t_end = 4.0;
  plan.link_degradations.push_back(ld);
  MessageDrop d;
  d.pipeline = 0;
  d.stage = 1;
  d.probability = 0.4;
  d.max_drops = 2;
  d.retry_timeout = 0.002;
  plan.drops.push_back(d);
  PipelineCrash c;
  c.pipeline = 1;
  c.t_crash = 5.0;
  c.t_rejoin = 8.0;
  c.resync_seconds = 0.5;
  c.crash_at_step = 3;
  c.rejoin_at_step = 6;
  plan.crashes.push_back(c);

  const FaultPlan back = FaultPlan::parse_json(plan.to_json());
  EXPECT_EQ(back.seed, plan.seed);
  ASSERT_EQ(back.stragglers.size(), 1u);
  EXPECT_EQ(back.stragglers[0].pipeline, 1);
  EXPECT_DOUBLE_EQ(back.stragglers[0].factor, 2.5);
  EXPECT_DOUBLE_EQ(back.stragglers[0].t_begin, 3.0);
  EXPECT_EQ(back.stragglers[0].step_end, 7);
  ASSERT_EQ(back.link_degradations.size(), 1u);
  EXPECT_DOUBLE_EQ(back.link_degradations[0].bandwidth_factor, 0.25);
  EXPECT_DOUBLE_EQ(back.link_degradations[0].extra_latency, 0.01);
  ASSERT_EQ(back.drops.size(), 1u);
  EXPECT_DOUBLE_EQ(back.drops[0].probability, 0.4);
  EXPECT_EQ(back.drops[0].max_drops, 2);
  ASSERT_EQ(back.crashes.size(), 1u);
  EXPECT_DOUBLE_EQ(back.crashes[0].t_crash, 5.0);
  EXPECT_DOUBLE_EQ(back.crashes[0].resync_seconds, 0.5);
  EXPECT_EQ(back.crashes[0].crash_at_step, 3);
  EXPECT_EQ(back.crashes[0].rejoin_at_step, 6);
}

TEST(FaultPlanJsonTest, OpenEndedWindowsSurviveRoundTrip) {
  FaultPlan plan;
  StragglerFault s;
  s.factor = 2.0;
  plan.stragglers.push_back(s);  // default [0, forever) x [0, no-limit)
  const FaultPlan back = FaultPlan::parse_json(plan.to_json());
  ASSERT_EQ(back.stragglers.size(), 1u);
  EXPECT_EQ(back.stragglers[0].t_end, kForever);
  EXPECT_EQ(back.stragglers[0].step_end, kNoStepLimit);
}

TEST(FaultPlanJsonTest, InvalidValuesThrow) {
  EXPECT_THROW(FaultPlan::parse_json("{\"stragglers\":[{\"factor\":0.5}]}"),
               Error);
  EXPECT_THROW(FaultPlan::parse_json(
                   "{\"drops\":[{\"probability\":1.5}]}"),
               Error);
  EXPECT_THROW(FaultPlan::parse_json(
                   "{\"link_degradations\":[{\"bandwidth_factor\":0.0}]}"),
               Error);
  EXPECT_THROW(FaultPlan::load_file("/nonexistent/plan.json"), Error);
}

// -- simulator integration ----------------------------------------------------------

sim::SimJob fault_toy_job(std::size_t pipelines, trace::Tracer* tracer,
                          const FaultPlan* faults) {
  auto w = workloads::toy_two_stage_profile();
  auto cluster = workloads::v100_cluster(2);
  auto part = partition::uniform_partition(w.layers.size(), 2);
  sim::SystemConfig sys;
  sys.kind = schedule::Kind::kOneFOneB;
  sys.micro_batches = 4;
  sys.num_pipelines = pipelines;
  sys.elastic_averaging = pipelines > 1;
  sim::SimJob job = sim::build_job(w, cluster, part, sys, w.batch_size, 4);
  job.tracer = tracer;
  job.faults = faults;
  return job;
}

TEST(SimFaultTest, EmptyPlanIsIndistinguishableFromNoPlan) {
  // Zero-cost shim: a present-but-empty plan must not perturb a single
  // event — same makespan, bit-identical trace.
  trace::Tracer base_tracer, empty_tracer;
  const FaultPlan empty;
  const sim::SimResult base =
      sim::simulate(fault_toy_job(1, &base_tracer, nullptr));
  const sim::SimResult with_empty =
      sim::simulate(fault_toy_job(1, &empty_tracer, &empty));
  EXPECT_EQ(base.makespan, with_empty.makespan);
  const auto a = base_tracer.collect();
  const auto b = empty_tracer.collect();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(SimFaultTest, SeededPlanYieldsBitIdenticalTraces) {
  FaultPlan plan;
  plan.seed = 99;
  plan.stragglers.push_back({0, 0, 1.7, 0.0, kForever, 0, kNoStepLimit});
  MessageDrop d;
  d.probability = 0.5;
  d.retry_timeout = 1e-3;
  plan.drops.push_back(d);

  trace::Tracer ta, tb;
  const sim::SimResult ra = sim::simulate(fault_toy_job(2, &ta, &plan));
  const sim::SimResult rb = sim::simulate(fault_toy_job(2, &tb, &plan));
  EXPECT_EQ(ra.makespan, rb.makespan);
  const auto a = ta.collect();
  const auto b = tb.collect();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "event " << i << " diverged";
  }
}

TEST(SimFaultTest, StragglerSlowsTheRunAndLeavesSpans) {
  trace::Tracer tracer;
  const sim::SimResult clean = sim::simulate(fault_toy_job(1, nullptr,
                                                           nullptr));
  FaultPlan plan;
  plan.stragglers.push_back({0, 0, 3.0, 0.0, kForever, 0, kNoStepLimit});
  const sim::SimResult slow = sim::simulate(fault_toy_job(1, &tracer, &plan));
  EXPECT_GT(slow.makespan, clean.makespan * 1.2);

  trace::TraceAnalysis analysis(tracer.collect());
  EXPECT_GT(analysis.straggler_delay(0), 0.0);
  EXPECT_DOUBLE_EQ(analysis.straggler_delay(1), 0.0);
  bool saw_straggler = false;
  for (const auto& ev : analysis.fault_events()) {
    saw_straggler |= ev.kind == trace::EventKind::kFaultStraggler;
  }
  EXPECT_TRUE(saw_straggler);
}

TEST(SimFaultTest, DegradedLinkStretchesCommunication) {
  const sim::SimResult clean = sim::simulate(fault_toy_job(1, nullptr,
                                                           nullptr));
  FaultPlan plan;
  LinkDegradation ld;
  ld.bandwidth_factor = 0.2;  // 5x slower wire, whole run
  plan.link_degradations.push_back(ld);
  trace::Tracer tracer;
  const sim::SimResult slow = sim::simulate(fault_toy_job(1, &tracer, &plan));
  EXPECT_GT(slow.makespan, clean.makespan);
  bool saw_window = false;
  for (const auto& ev : tracer.collect()) {
    saw_window |= ev.kind == trace::EventKind::kLinkDegraded;
  }
  EXPECT_TRUE(saw_window);
}

TEST(SimFaultTest, CrashAndRejoinAreTracedAndPaired) {
  // Scale the crash window off the healthy makespan so the test is robust to
  // profile changes.
  const sim::SimResult healthy =
      sim::simulate(fault_toy_job(2, nullptr, nullptr));
  FaultPlan plan;
  PipelineCrash c;
  c.pipeline = 1;
  c.t_crash = healthy.makespan * 0.25;
  c.t_rejoin = healthy.makespan * 0.5;
  c.resync_seconds = healthy.makespan * 0.05;
  plan.crashes.push_back(c);

  trace::Tracer tracer;
  const sim::SimResult r = sim::simulate(fault_toy_job(2, &tracer, &plan));
  EXPECT_GT(r.makespan, 0.0);

  trace::TraceAnalysis analysis(tracer.collect());
  const auto recoveries = analysis.recoveries();
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_EQ(recoveries[0].pipeline, 1u);
  EXPECT_TRUE(recoveries[0].rejoined);
  EXPECT_NEAR(recoveries[0].t_crash, c.t_crash, 1e-9);
  EXPECT_GT(recoveries[0].latency, 0.0);
}

TEST(SimFaultTest, PermanentCrashStopsOnePipelineCleanly) {
  const sim::SimResult healthy =
      sim::simulate(fault_toy_job(2, nullptr, nullptr));
  FaultPlan plan;
  PipelineCrash c;
  c.pipeline = 1;
  c.t_crash = healthy.makespan * 0.3;  // never rejoins
  plan.crashes.push_back(c);
  trace::Tracer tracer;
  const sim::SimResult r = sim::simulate(fault_toy_job(2, &tracer, &plan));
  EXPECT_GT(r.makespan, 0.0);
  trace::TraceAnalysis analysis(tracer.collect());
  const auto recoveries = analysis.recoveries();
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_FALSE(recoveries[0].rejoined);
}

// -- threaded-runtime integration ---------------------------------------------------

runtime::OptimizerFactory sgd_factory(double lr) {
  return [lr](std::vector<tensor::Variable> params) {
    return std::make_unique<optim::Sgd>(std::move(params), lr);
  };
}

TEST(RuntimeFaultTest, WorkerExceptionCarriesStageAndInstruction) {
  data::SyntheticFeatures ds(24, 4, 2, 3);
  data::DataLoader loader(ds, 12, 1);
  nn::Sequential model = nn::make_mlp(4, 6, 3, 2, 1);
  int calls = 0;
  // A loss head that blows up mid-batch stands in for any model bug on the
  // last stage.
  runtime::LossFn bomb = [&calls](const tensor::Variable& logits,
                                  const std::vector<int>& targets) {
    if (++calls == 2) throw Error("injected model bug");
    return tensor::softmax_cross_entropy(logits, targets);
  };
  runtime::PipelineRuntime rt(model, {2, 4}, sgd_factory(0.1), bomb,
                              {.kind = schedule::Kind::kOneFOneB});
  try {
    rt.train_batch(loader.batch(0, 0));
    FAIL() << "expected the injected failure to surface";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stage 2"), std::string::npos) << what;
    EXPECT_NE(what.find("[F b0."), std::string::npos) << what;
    EXPECT_NE(what.find("injected model bug"), std::string::npos) << what;
  }
  EXPECT_TRUE(rt.failed());
  // A failed runtime is permanently dead: the stored failure resurfaces.
  EXPECT_THROW(rt.train_batch(loader.batch(0, 0)), Error);
}

TEST(RuntimeFaultTest, CertainDropsDeclareTheLinkDead) {
  data::SyntheticFeatures ds(24, 4, 2, 3);
  data::DataLoader loader(ds, 12, 1);
  nn::Sequential model = nn::make_mlp(4, 6, 3, 2, 1);
  FaultPlan plan;
  MessageDrop d;
  d.probability = 1.0;  // every retry lost: the sender must give up
  d.retry_timeout = 1e-4;
  plan.drops.push_back(d);
  runtime::PipelineRuntime rt(model, {2, 4}, sgd_factory(0.1),
                              runtime::cross_entropy_loss(),
                              {.kind = schedule::Kind::kOneFOneB,
                               .faults = &plan});
  try {
    rt.train_batch(loader.batch(0, 0));
    FAIL() << "expected the dead link to fail the batch";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("link declared dead"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(rt.failed());
}

TEST(RuntimeFaultTest, StragglerCompletesAndIsTraced) {
  data::SyntheticFeatures ds(24, 4, 2, 3);
  data::DataLoader loader(ds, 12, 1);
  nn::Sequential model = nn::make_mlp(4, 6, 3, 2, 1);
  trace::Tracer tracer;
  FaultPlan plan;
  plan.stragglers.push_back({kAny, 0, 1.5, 0.0, kForever, 0, kNoStepLimit});
  runtime::PipelineRuntime rt(model, {2}, sgd_factory(0.1),
                              runtime::cross_entropy_loss(),
                              {.kind = schedule::Kind::kOneFOneB,
                               .tracer = &tracer,
                               .faults = &plan});
  const auto stats = rt.train_batch(loader.batch(0, 0));
  EXPECT_TRUE(std::isfinite(stats.loss));
  EXPECT_FALSE(rt.failed());
  bool saw_straggler = false;
  for (const auto& ev : tracer.collect()) {
    saw_straggler |= ev.kind == trace::EventKind::kFaultStraggler &&
                     ev.stage == 0;
  }
  EXPECT_TRUE(saw_straggler);
}

TEST(RuntimeFaultTest, StragglerWindowCoversOnlyItsSteps) {
  // A window over step 1 alone slows the second of three batches and no
  // other: the step each batch runs under, and tags its spans with, is the
  // one its start token carries.
  data::SyntheticFeatures ds(24, 4, 2, 3);
  data::DataLoader loader(ds, 12, 1);
  nn::Sequential model = nn::make_mlp(4, 6, 3, 2, 1);
  trace::Tracer tracer;
  FaultPlan plan;
  plan.stragglers.push_back({kAny, kAny, 1.5, 0.0, kForever, 1, 2});
  runtime::PipelineRuntime rt(model, {2}, sgd_factory(0.1),
                              runtime::cross_entropy_loss(),
                              {.kind = schedule::Kind::kOneFOneB,
                               .tracer = &tracer,
                               .faults = &plan});
  for (std::size_t b = 0; b < 3; ++b) rt.train_batch(loader.batch(0, 0));
  std::size_t stragglers = 0;
  for (const auto& ev : tracer.collect()) {
    if (ev.kind != trace::EventKind::kFaultStraggler) continue;
    ++stragglers;
    EXPECT_EQ(ev.batch, 1);
  }
  EXPECT_GT(stragglers, 0u);
}

TEST(RuntimeFaultTest, SurvivableDropsOnlyDelayTheBatch) {
  data::SyntheticFeatures ds(24, 4, 2, 3);
  data::DataLoader loader(ds, 12, 1);

  // Same model/batch with and without a lossy link: numerics must agree
  // exactly — the shim retries delivery, it never changes payloads.
  nn::Sequential clean_model = nn::make_mlp(4, 6, 3, 2, 5);
  runtime::PipelineRuntime clean(clean_model, {2}, sgd_factory(0.1),
                                 runtime::cross_entropy_loss(),
                                 {.kind = schedule::Kind::kOneFOneB});
  const double clean_loss = clean.train_batch(loader.batch(0, 0)).loss;

  nn::Sequential lossy_model = nn::make_mlp(4, 6, 3, 2, 5);
  FaultPlan plan;
  plan.seed = 3;
  MessageDrop d;
  d.probability = 0.4;
  d.retry_timeout = 1e-4;
  plan.drops.push_back(d);
  runtime::PipelineRuntime lossy(lossy_model, {2}, sgd_factory(0.1),
                                 runtime::cross_entropy_loss(),
                                 {.kind = schedule::Kind::kOneFOneB,
                                  .faults = &plan});
  const double lossy_loss = lossy.train_batch(loader.batch(0, 0)).loss;
  EXPECT_DOUBLE_EQ(clean_loss, lossy_loss);

  auto cp = clean_model.parameters();
  auto lp = lossy_model.parameters();
  ASSERT_EQ(cp.size(), lp.size());
  for (std::size_t i = 0; i < cp.size(); ++i) {
    EXPECT_DOUBLE_EQ(cp[i].value().max_abs_diff(lp[i].value()), 0.0);
  }
}

}  // namespace
}  // namespace avgpipe::fault
