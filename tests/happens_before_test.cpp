#include "trace/happens_before.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/avgpipe.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "sim/simulator.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

namespace avgpipe::trace {
namespace {

/// The happens-before checker against real traces from both engines (which
/// must pass) and hand-mutated traces exercising every violation class
/// (which must fail with a pinpointed report).

TraceEvent span(EventKind kind, std::uint32_t pipeline, std::uint32_t stage,
                int batch, int micro_batch, Seconds t0, Seconds t1) {
  TraceEvent ev;
  ev.kind = kind;
  ev.pipeline = pipeline;
  ev.stage = stage;
  ev.batch = batch;
  ev.micro_batch = micro_batch;
  ev.t_begin = t0;
  ev.t_end = t1;
  return ev;
}

bool any_violation_contains(const HbReport& r, const std::string& needle) {
  for (const auto& v : r.violations) {
    if (v.what.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(HappensBeforeTest, EmptyTraceIsOk) {
  const HbReport r = check_happens_before({});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.events_checked, 0u);
}

// -- real traces ------------------------------------------------------------------

TEST(HappensBeforeTest, SimulatedTracePassesStrictCheck) {
  const auto w = workloads::toy_two_stage_profile();
  const auto cluster = workloads::v100_cluster(w.num_gpus);
  const auto part = partition::pipedream_partition(w, cluster, w.num_gpus);
  for (const auto kind : {schedule::Kind::kAfab, schedule::Kind::kOneFOneB,
                          schedule::Kind::kAdvanceForward}) {
    sim::SystemConfig sys;
    sys.kind = kind;
    sys.micro_batches = 4;
    sys.num_pipelines = 2;
    sys.elastic_averaging = true;
    auto job = sim::build_job(w, cluster, part, sys, w.batch_size, 3);
    job.memory_limit = 1e18;
    Tracer tracer;
    job.tracer = &tracer;
    sim::simulate(job);

    HbOptions options;
    options.strict = true;  // virtual clocks ARE the causal order
    const HbReport r = check_happens_before(tracer.collect(), options);
    SCOPED_TRACE(schedule::to_string(kind));
    EXPECT_TRUE(r.ok) << (r.violations.empty() ? r.summary()
                                               : r.violations[0].what);
    EXPECT_GT(r.events_checked, 0u);
    EXPECT_GT(r.edges, 0u);
    EXPECT_EQ(r.pipelines, 2u);
  }
}

TEST(HappensBeforeTest, SimulatedTraceSurvivesChromeRoundTrip) {
  // The CI analysis job records a Chrome trace artifact and replays it
  // through the checker: serialization must preserve everything the
  // happens-before replay needs.
  const auto w = workloads::toy_two_stage_profile();
  const auto cluster = workloads::v100_cluster(w.num_gpus);
  const auto part = partition::pipedream_partition(w, cluster, w.num_gpus);
  sim::SystemConfig sys;
  sys.kind = schedule::Kind::kAdvanceForward;
  sys.micro_batches = 4;
  sys.num_pipelines = 2;
  sys.elastic_averaging = true;
  auto job = sim::build_job(w, cluster, part, sys, w.batch_size, 2);
  job.memory_limit = 1e18;
  Tracer tracer;
  job.tracer = &tracer;
  sim::simulate(job);

  std::stringstream buffer;
  write_chrome_trace(buffer, tracer.collect());
  const auto reparsed = parse_chrome_trace(buffer);

  HbOptions options;
  options.strict = true;
  const HbReport r = check_happens_before(reparsed, options);
  EXPECT_TRUE(r.ok) << (r.violations.empty() ? r.summary()
                                             : r.violations[0].what);
  EXPECT_GT(r.edges, 0u);
}

TEST(HappensBeforeTest, ThreadedElasticRunPassesWeakCheck) {
  data::SyntheticFeatures ds(48, 6, 2, 5);
  data::DataLoader loader(ds, 12, 2);
  Tracer tracer;

  core::AvgPipeConfig config;
  config.num_pipelines = 2;
  config.micro_batches = 3;
  config.boundaries = {2};
  config.sync_lag = 1;
  config.tracer = &tracer;
  core::AvgPipe system(
      [](std::uint64_t seed) { return nn::make_mlp(6, 8, 2, 2, seed); },
      [](std::vector<tensor::Variable> params) {
        return std::make_unique<optim::Sgd>(std::move(params), 0.1);
      },
      config);
  for (std::size_t iter = 0; iter < 3; ++iter) {
    system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
  }

  HbOptions options;  // weak: wall clocks only bound span begins
  options.sync_lag = static_cast<long>(config.sync_lag);
  const HbReport r = check_happens_before(tracer.collect(), options);
  EXPECT_TRUE(r.ok) << (r.violations.empty() ? r.summary()
                                             : r.violations[0].what);
  EXPECT_EQ(r.pipelines, 2u);
  EXPECT_GT(r.edges, 0u);
  EXPECT_LE(r.max_sync_lag, static_cast<double>(config.sync_lag) + 0.5);
}

// -- mutated traces ---------------------------------------------------------------

TEST(HappensBeforeTest, DetectsMicroBatchReorderWithinStage) {
  const std::vector<TraceEvent> events{
      span(EventKind::kForward, 0, 0, 0, 1, 0.0, 1.0),
      span(EventKind::kForward, 0, 0, 0, 0, 1.0, 2.0),
  };
  const HbReport r = check_happens_before(events);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_violation_contains(r, "micro-batch reorder"))
      << r.summary();
}

TEST(HappensBeforeTest, DetectsBackwardWithoutForward) {
  const std::vector<TraceEvent> events{
      span(EventKind::kBackward, 0, 0, 0, 0, 0.0, 1.0),
  };
  const HbReport r = check_happens_before(events);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_violation_contains(r, "backward before forward"));
}

TEST(HappensBeforeTest, DetectsFifoViolationAcrossBatches) {
  // Producer order on acts[0]: b0.m0, b0.m1, b1.m0. The consumer takes
  // b1.m0 before b0.m1 — in-order per batch (so no reorder violation), but
  // out of production order on the link.
  const std::vector<TraceEvent> events{
      span(EventKind::kForward, 0, 0, 0, 0, 0.0, 0.5),
      span(EventKind::kForward, 0, 0, 0, 1, 1.0, 1.5),
      span(EventKind::kForward, 0, 0, 1, 0, 2.0, 2.5),
      span(EventKind::kForward, 0, 1, 0, 0, 10.0, 10.5),
      span(EventKind::kForward, 0, 1, 1, 0, 11.0, 11.5),
      span(EventKind::kForward, 0, 1, 0, 1, 12.0, 12.5),
  };
  const HbReport r = check_happens_before(events);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_violation_contains(r, "FIFO violation on acts[0]"))
      << r.summary();
}

TEST(HappensBeforeTest, DetectsCausalityInversionOnActivationLink) {
  // Stage 1 "consumes" b0.m0 before stage 0 even began producing it.
  const std::vector<TraceEvent> events{
      span(EventKind::kForward, 0, 1, 0, 0, 0.0, 1.0),
      span(EventKind::kForward, 0, 0, 0, 0, 2.0, 3.0),
  };
  const HbReport r = check_happens_before(events);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_violation_contains(r, "causality inversion"))
      << r.summary();
}

TEST(HappensBeforeTest, StrictModeCatchesOverlapWeakModeAllows) {
  // Downstream begins mid-span of its producer: legitimate under wall
  // clocks (the send happens before the span closes), impossible under
  // simulated virtual time.
  const std::vector<TraceEvent> events{
      span(EventKind::kForward, 0, 0, 0, 0, 0.0, 2.0),
      span(EventKind::kForward, 0, 1, 0, 0, 1.0, 3.0),
  };
  EXPECT_TRUE(check_happens_before(events).ok);
  HbOptions strict;
  strict.strict = true;
  EXPECT_FALSE(check_happens_before(events, strict).ok);
}

TEST(HappensBeforeTest, DetectsPullBeforeUpdate) {
  const std::vector<TraceEvent> events{
      span(EventKind::kElasticPull, 0, 0, -1, -1, 0.0, 1.0),
      span(EventKind::kForward, 0, 0, 0, 0, 1.0, 2.0),
      span(EventKind::kBackward, 0, 0, 0, 0, 2.0, 3.0),
      span(EventKind::kUpdate, 0, 0, 0, -1, 3.0, 4.0),
  };
  const HbReport r = check_happens_before(events);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_violation_contains(r, "elastic round")) << r.summary();
}

TEST(HappensBeforeTest, DetectsStagePullBeforeItsOwnUpdate) {
  // Stage 0 updates before stage 1 pulls, but stage 1 pulls before its own
  // update: the pairing is per stage, so this is still a violation.
  const std::vector<TraceEvent> events{
      span(EventKind::kUpdate, 0, 0, 0, -1, 0.0, 1.0),
      span(EventKind::kElasticPull, 0, 0, -1, -1, 1.0, 2.0),
      span(EventKind::kElasticPull, 0, 1, -1, -1, 2.0, 3.0),
      span(EventKind::kUpdate, 0, 1, 0, -1, 4.0, 5.0),
  };
  const HbReport r = check_happens_before(events);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_violation_contains(r, "elastic round")) << r.summary();
}

TEST(HappensBeforeTest, AcceptsStagePullBeforePeerStageUpdate) {
  // Co-partitioned sync: stage 1 pulls its shard right after its own update,
  // which may well precede stage 0's update of the same batch.
  const std::vector<TraceEvent> events{
      span(EventKind::kUpdate, 0, 1, 0, -1, 0.0, 1.0),
      span(EventKind::kElasticPull, 0, 1, -1, -1, 1.0, 2.0),
      span(EventKind::kUpdate, 0, 0, 0, -1, 3.0, 4.0),
      span(EventKind::kElasticPull, 0, 0, -1, -1, 4.0, 5.0),
  };
  const HbReport r = check_happens_before(events);
  EXPECT_TRUE(r.ok) << (r.violations.empty() ? r.summary()
                                             : r.violations[0].what);
  EXPECT_EQ(r.processes, 4u);  // two stages, each with its pull context
}

TEST(HappensBeforeTest, DetectsPerStagePullUpdateCountMismatch) {
  // Three pulls against two updates in total would pair up pipeline-wide;
  // per stage, stage 1's second pull has no update of its own.
  const std::vector<TraceEvent> events{
      span(EventKind::kUpdate, 0, 0, 0, -1, 0.0, 1.0),
      span(EventKind::kElasticPull, 0, 0, -1, -1, 1.0, 2.0),
      span(EventKind::kUpdate, 0, 1, 0, -1, 2.0, 3.0),
      span(EventKind::kElasticPull, 0, 1, -1, -1, 3.0, 4.0),
      span(EventKind::kElasticPull, 0, 1, -1, -1, 5.0, 6.0),
  };
  const HbReport r = check_happens_before(events);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_violation_contains(r, "of p0/s1 has no matching update"))
      << r.summary();
}

TEST(HappensBeforeTest, DetectsPullWithoutMatchingUpdate) {
  const std::vector<TraceEvent> events{
      span(EventKind::kForward, 0, 0, 0, 0, 0.0, 1.0),
      span(EventKind::kBackward, 0, 0, 0, 0, 1.0, 2.0),
      span(EventKind::kUpdate, 0, 0, 0, -1, 2.0, 3.0),
      span(EventKind::kElasticPull, 0, 0, -1, -1, 3.0, 4.0),
      span(EventKind::kElasticPull, 0, 0, -1, -1, 5.0, 6.0),
  };
  const HbReport r = check_happens_before(events);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_violation_contains(r, "no matching update"))
      << r.summary();
}

TEST(HappensBeforeTest, DetectsSyncLagOverrun) {
  TraceEvent counter;
  counter.kind = EventKind::kCounter;
  counter.counter = CounterId::kSyncLag;
  counter.t_begin = counter.t_end = 1.0;
  counter.value = 3.0;

  HbOptions options;
  options.sync_lag = 1;
  const HbReport r = check_happens_before({counter}, options);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_violation_contains(r, "sync_lag exceeded"));
  EXPECT_DOUBLE_EQ(r.max_sync_lag, 3.0);

  options.sync_lag = 3;
  EXPECT_TRUE(check_happens_before({counter}, options).ok);
  options.sync_lag = -1;  // disabled
  EXPECT_TRUE(check_happens_before({counter}, options).ok);
}

TEST(HappensBeforeTest, ViolationCollectionIsCapped) {
  std::vector<TraceEvent> events;
  for (int mb = 9; mb >= 0; --mb) {  // every forward after the first reorders
    events.push_back(span(EventKind::kForward, 0, 0, 0, mb, 9.0 - mb,
                          10.0 - mb));
  }
  HbOptions options;
  options.max_violations = 4;
  const HbReport r = check_happens_before(events, options);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.violations.size(), 4u);
  EXPECT_GT(r.violations_total, 4u);
}

}  // namespace
}  // namespace avgpipe::trace
