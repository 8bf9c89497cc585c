#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "trace/analysis.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

namespace avgpipe::trace {
namespace {

TraceEvent span(EventKind kind, std::uint32_t pipeline, std::uint32_t stage,
                int micro_batch, Seconds t0, Seconds t1, Bytes bytes = 0) {
  TraceEvent ev;
  ev.kind = kind;
  ev.pipeline = pipeline;
  ev.stage = stage;
  ev.batch = 0;
  ev.micro_batch = micro_batch;
  ev.t_begin = t0;
  ev.t_end = t1;
  ev.bytes = bytes;
  return ev;
}

TraceEvent counter(CounterId id, std::uint32_t stage, Seconds t, double value) {
  TraceEvent ev;
  ev.kind = EventKind::kCounter;
  ev.counter = id;
  ev.stage = stage;
  ev.t_begin = ev.t_end = t;
  ev.value = value;
  return ev;
}

// -- event classification ---------------------------------------------------------

TEST(TraceEventTest, KindClassification) {
  EXPECT_TRUE(is_compute(EventKind::kForward));
  EXPECT_TRUE(is_compute(EventKind::kBackward));
  EXPECT_TRUE(is_compute(EventKind::kUpdate));
  EXPECT_TRUE(is_comm(EventKind::kCommActivation));
  EXPECT_TRUE(is_comm(EventKind::kCommGradient));
  EXPECT_TRUE(is_comm(EventKind::kCommAllReduce));
  EXPECT_TRUE(is_wait(EventKind::kWaitComm));
  EXPECT_TRUE(is_wait(EventKind::kWaitBubble));
  EXPECT_FALSE(is_compute(EventKind::kCounter));
  EXPECT_FALSE(is_comm(EventKind::kElasticPull));
  EXPECT_FALSE(is_wait(EventKind::kReferenceApply));
}

TEST(TraceEventTest, EveryKindHasAName) {
  for (int k = 0; k <= static_cast<int>(EventKind::kCheckpointCommit); ++k) {
    EXPECT_STRNE(to_string(static_cast<EventKind>(k)), "?");
  }
  for (int c = 0; c <= static_cast<int>(CounterId::kSyncBytesRaw); ++c) {
    EXPECT_STRNE(to_string(static_cast<CounterId>(c)), "?");
  }
}

// -- collection & ordering --------------------------------------------------------

TEST(TracerTest, CollectSortsByBeginAcrossBuffers) {
  Tracer tracer;
  TraceBuffer* a = tracer.create_buffer();
  TraceBuffer* b = tracer.create_buffer();
  // Interleaved begins, recorded out of global order.
  a->record(span(EventKind::kForward, 0, 0, 0, 2.0, 3.0));
  a->record(span(EventKind::kForward, 0, 0, 1, 5.0, 6.0));
  b->record(span(EventKind::kBackward, 0, 1, 0, 1.0, 4.0));
  b->record(span(EventKind::kBackward, 0, 1, 1, 3.0, 7.0));

  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t_begin, events[i].t_begin);
  }
  EXPECT_EQ(events[0].kind, EventKind::kBackward);
  EXPECT_EQ(events[1].kind, EventKind::kForward);
}

TEST(TracerTest, EqualTimestampsKeepBufferCreationOrder) {
  // Two executions that produce the same timestamps must collect to the same
  // sequence — the stable sort keeps (creation order, insertion order) for
  // ties, which the bit-identical-replay property test relies on.
  Tracer tracer;
  TraceBuffer* a = tracer.create_buffer();
  TraceBuffer* b = tracer.create_buffer();
  a->record(span(EventKind::kForward, 0, 0, 0, 1.0, 2.0));
  b->record(span(EventKind::kBackward, 0, 1, 0, 1.0, 2.0));
  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kForward);
  EXPECT_EQ(events[1].kind, EventKind::kBackward);
}

TEST(TracerTest, ClearKeepsBuffersRegistered) {
  Tracer tracer;
  TraceBuffer* a = tracer.create_buffer();
  a->record(span(EventKind::kForward, 0, 0, 0, 0.0, 1.0));
  EXPECT_EQ(tracer.collect().size(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.collect().size(), 0u);
  EXPECT_EQ(tracer.num_buffers(), 1u);
  a->record(span(EventKind::kForward, 0, 0, 1, 0.0, 1.0));  // still valid
  EXPECT_EQ(tracer.collect().size(), 1u);
}

TEST(TracerTest, NestedScopedSpansBothRecorded) {
  Tracer tracer;
  TraceBuffer* buf = tracer.create_buffer();
  TraceEvent outer_proto;
  outer_proto.kind = EventKind::kForward;
  TraceEvent inner_proto;
  inner_proto.kind = EventKind::kUpdate;
  {
    ScopedSpan outer(tracer, buf, outer_proto);
    {
      ScopedSpan inner(tracer, buf, inner_proto);
    }
  }
  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), 2u);
  // The inner span closes first, so it appears first after the stable sort
  // unless begins differ; find each by kind to stay robust.
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const auto& ev : events) {
    if (ev.kind == EventKind::kForward) outer = &ev;
    if (ev.kind == EventKind::kUpdate) inner = &ev;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_LE(outer->t_begin, inner->t_begin);
  EXPECT_LE(inner->t_end, outer->t_end);
  EXPECT_LE(outer->t_begin, outer->t_end);
}

TEST(TracerTest, ConcurrentEmittersAndCollector) {
  // 8 emitter threads with their own buffers while the main thread collects
  // concurrently — the documented usage; run under TSan in CI.
  constexpr int kThreads = 8;
  constexpr int kEvents = 1000;
  Tracer tracer;
  std::vector<TraceBuffer*> buffers;
  for (int i = 0; i < kThreads; ++i) buffers.push_back(tracer.create_buffer());

  std::atomic<bool> done{false};
  std::vector<std::thread> emitters;
  for (int t = 0; t < kThreads; ++t) {
    emitters.emplace_back([&tracer, buf = buffers[t], t] {
      for (int i = 0; i < kEvents; ++i) {
        TraceEvent ev;
        ev.kind = EventKind::kForward;
        ev.stage = static_cast<std::uint32_t>(t);
        ev.micro_batch = i;
        ev.t_begin = tracer.wall_now();
        ev.t_end = tracer.wall_now();
        buf->record(ev);
      }
    });
  }
  std::thread collector([&] {
    while (!done.load()) {
      const auto snapshot = tracer.collect();
      EXPECT_LE(snapshot.size(),
                static_cast<std::size_t>(kThreads) * kEvents);
    }
  });
  for (auto& t : emitters) t.join();
  done.store(true);
  collector.join();

  const auto events = tracer.collect();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kEvents);
  // Per-stage micro-batch order is preserved (single-owner buffers).
  std::vector<TraceEvent> by_stage[kThreads];
  for (const auto& ev : events) by_stage[ev.stage].push_back(ev);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(by_stage[t].size(), static_cast<std::size_t>(kEvents));
    for (int i = 0; i < kEvents; ++i) {
      EXPECT_EQ(by_stage[t][i].micro_batch, i);
    }
  }
}

// -- Chrome exporter round trip ---------------------------------------------------

std::vector<TraceEvent> diverse_events() {
  std::vector<TraceEvent> events;
  events.push_back(span(EventKind::kForward, 0, 0, 0, 0.0, 1.0 / 3.0));
  events.push_back(span(EventKind::kBackward, 1, 3, 17, 0.125, 0.875));
  events.push_back(span(EventKind::kUpdate, 0, 2, -1, 2.0, 2.5));
  events.push_back(
      span(EventKind::kCommActivation, 0, 1, 4, 1e-7, 2e-7, 123456789.0));
  events.push_back(span(EventKind::kCommGradient, 2, 0, 9, 3.0, 3.000001,
                        9.87654321e12));
  events.push_back(span(EventKind::kCommAllReduce, 0, 0, -1, 4.0, 5.0, 64.0));
  events.push_back(span(EventKind::kWaitComm, 0, 1, 2, 0.3, 0.7));
  events.push_back(span(EventKind::kWaitBubble, 1, 2, 5, 0.9, 1.1));
  events.push_back(span(EventKind::kElasticPull, 3, 0, -1, 6.0, 6.25));
  events.push_back(span(EventKind::kReferenceApply, 0, 0, -1, 6.5, 6.75));
  events.push_back(counter(CounterId::kUtilization, 2, 1.5, 0.625));
  events.push_back(counter(CounterId::kQueueDepth, 1, 2.25, 17.0));
  events.push_back(counter(CounterId::kSyncLag, 0, 3.5, 2.0));
  // Awkward precision: values that lose bits unless exported at %.17g.
  events.push_back(span(EventKind::kForward, 0, 0, 1, 0.1 + 0.2, 1.0 / 7.0 + 1));
  return events;
}

TEST(ChromeTraceTest, RoundTripIsExact) {
  const auto original = diverse_events();
  std::ostringstream os;
  write_chrome_trace(os, original);
  std::istringstream is(os.str());
  const auto parsed = parse_chrome_trace(is);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed[i], original[i]) << "event " << i;
  }
}

TEST(ChromeTraceTest, EmitsTraceEventShape) {
  std::ostringstream os;
  write_chrome_trace(os, diverse_events());
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);  // complete spans
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);  // counters
  EXPECT_NE(doc.find("\"pid\":"), std::string::npos);
  EXPECT_NE(doc.find("\"tid\":"), std::string::npos);
  EXPECT_EQ(doc.back(), '\n');
}

TEST(ChromeTraceTest, TimestampsAreMicroseconds) {
  std::vector<TraceEvent> events;
  events.push_back(span(EventKind::kForward, 0, 0, 0, 0.001, 0.003));
  std::ostringstream os;
  write_chrome_trace(os, events);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(doc.find("\"dur\":2000"), std::string::npos);
}

TEST(ChromeTraceTest, RejectsMalformedInput) {
  std::istringstream not_a_trace("{\"hello\": 1}\n");
  EXPECT_THROW(parse_chrome_trace(not_a_trace), avgpipe::Error);
}

TEST(ChromeTraceTest, EmptyTraceRoundTrips) {
  std::ostringstream os;
  write_chrome_trace(os, {});
  std::istringstream is(os.str());
  EXPECT_TRUE(parse_chrome_trace(is).empty());
}

// -- analysis ---------------------------------------------------------------------

TEST(TraceAnalysisTest, BusyCommAndOverlap) {
  // Stage 0: compute [0,2] and [3,4]; inbound comm [1,2] (inside compute)
  // and [2.5, 3.5] (half inside). Overlapped comm = 1.0 + 0.5 of 2.0 total.
  std::vector<TraceEvent> events;
  events.push_back(span(EventKind::kForward, 0, 0, 0, 0.0, 2.0));
  events.push_back(span(EventKind::kBackward, 0, 0, 0, 3.0, 4.0));
  events.push_back(span(EventKind::kCommGradient, 0, 0, 0, 1.0, 2.0, 10.0));
  events.push_back(span(EventKind::kCommGradient, 0, 0, 1, 2.5, 3.5, 10.0));
  TraceAnalysis analysis(std::move(events));

  EXPECT_EQ(analysis.num_stages(), 1u);
  EXPECT_NEAR(analysis.busy_time(0), 3.0, 1e-12);
  EXPECT_NEAR(analysis.comm_time(0), 2.0, 1e-12);
  EXPECT_NEAR(analysis.comm_overlap_fraction(0), 1.5 / 2.0, 1e-12);
  EXPECT_NEAR(analysis.comm_overlap_fraction(), 1.5 / 2.0, 1e-12);
  EXPECT_NEAR(analysis.idle_fraction(0), 1.0 - 3.0 / 4.0, 1e-12);
}

TEST(TraceAnalysisTest, OverlappingPipelinesMergeIntoBusyUnion) {
  // Two pipelines on the same stage with overlapping compute: busy time is
  // the union, not the sum.
  std::vector<TraceEvent> events;
  events.push_back(span(EventKind::kForward, 0, 0, 0, 0.0, 2.0));
  events.push_back(span(EventKind::kForward, 1, 0, 0, 1.0, 3.0));
  TraceAnalysis analysis(std::move(events));
  EXPECT_EQ(analysis.num_pipelines(), 2u);
  EXPECT_NEAR(analysis.busy_time(0), 3.0, 1e-12);
}

TEST(TraceAnalysisTest, WaitTimesSplitByCause) {
  std::vector<TraceEvent> events;
  events.push_back(span(EventKind::kWaitBubble, 0, 1, 0, 0.0, 1.0));
  events.push_back(span(EventKind::kWaitComm, 0, 1, 0, 1.0, 1.5));
  TraceAnalysis analysis(std::move(events));
  EXPECT_NEAR(analysis.bubble_time(1), 1.0, 1e-12);
  EXPECT_NEAR(analysis.comm_wait_time(1), 0.5, 1e-12);
}

TEST(TraceAnalysisTest, UtilizationFromCounterSegments) {
  // φ on stage 0: 1.0 over [0,1), 0.5 over [1,3); makespan 4 (a forward span
  // stretches the horizon). Mean = (1.0 + 1.0) / 4.
  std::vector<TraceEvent> events;
  TraceEvent seg = counter(CounterId::kUtilization, 0, 0.0, 1.0);
  seg.t_end = 1.0;
  events.push_back(seg);
  seg = counter(CounterId::kUtilization, 0, 1.0, 0.5);
  seg.t_end = 3.0;
  events.push_back(seg);
  events.push_back(span(EventKind::kForward, 0, 0, 0, 0.0, 4.0));
  TraceAnalysis analysis(std::move(events));

  const StepFunction phi = analysis.utilization(0);
  EXPECT_NEAR(phi.value_at(0.5), 1.0, 1e-12);
  EXPECT_NEAR(phi.value_at(2.0), 0.5, 1e-12);
  EXPECT_NEAR(phi.integral(), 2.0, 1e-12);
  EXPECT_NEAR(analysis.mean_utilization(), 2.0 / 4.0, 1e-12);
  EXPECT_NEAR(analysis.peak_utilization(), 1.0, 1e-12);
}

TEST(TraceAnalysisTest, CounterQuantiles) {
  std::vector<TraceEvent> events;
  for (int i = 1; i <= 4; ++i) {
    events.push_back(counter(CounterId::kQueueDepth, 0,
                             static_cast<Seconds>(i), static_cast<double>(i)));
  }
  TraceAnalysis analysis(std::move(events));
  EXPECT_NEAR(analysis.counter_quantile(0, CounterId::kQueueDepth, 0.0), 1.0,
              1e-12);
  EXPECT_NEAR(analysis.counter_quantile(0, CounterId::kQueueDepth, 1.0), 4.0,
              1e-12);
  EXPECT_NEAR(analysis.counter_quantile(0, CounterId::kQueueDepth, 0.5), 2.5,
              1e-12);
  // No samples on that stage/series -> 0.
  EXPECT_EQ(analysis.counter_quantile(3, CounterId::kSyncLag, 0.5), 0.0);
}

TEST(TraceAnalysisTest, StageOpsReplaysComputeInstructionsInOrder) {
  std::vector<TraceEvent> events;
  events.push_back(span(EventKind::kForward, 0, 1, 0, 0.0, 1.0));
  events.push_back(span(EventKind::kWaitBubble, 0, 1, 1, 1.0, 1.5));
  events.push_back(span(EventKind::kForward, 0, 1, 1, 1.5, 2.0));
  events.push_back(span(EventKind::kBackward, 0, 1, 0, 2.0, 3.0));
  TraceEvent up = span(EventKind::kUpdate, 0, 1, -1, 3.0, 3.5);
  up.micro_batch = 1;
  events.push_back(up);
  // Other pipeline / stage events must not leak into the stream.
  events.push_back(span(EventKind::kForward, 1, 1, 7, 0.0, 1.0));
  events.push_back(span(EventKind::kForward, 0, 0, 8, 0.0, 1.0));
  TraceAnalysis analysis(std::move(events));

  const auto ops = analysis.stage_ops(0, 1);
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0], (schedule::Instr{schedule::OpKind::kForward, 0, 0}));
  EXPECT_EQ(ops[1], (schedule::Instr{schedule::OpKind::kForward, 0, 1}));
  EXPECT_EQ(ops[2], (schedule::Instr{schedule::OpKind::kBackward, 0, 0}));
  EXPECT_EQ(ops[3], (schedule::Instr{schedule::OpKind::kUpdate, 0, 1}));
}

TEST(TraceAnalysisTest, MetricsTableHasOneRowPerStage) {
  std::vector<TraceEvent> events;
  events.push_back(span(EventKind::kForward, 0, 0, 0, 0.0, 1.0));
  events.push_back(span(EventKind::kForward, 0, 1, 0, 1.0, 2.0));
  events.push_back(span(EventKind::kForward, 0, 2, 0, 2.0, 3.0));
  TraceAnalysis analysis(std::move(events));
  const Table table = analysis.metrics_table();
  EXPECT_EQ(table.num_rows(), 3u);
}

TEST(TraceAnalysisTest, EmptyTraceIsSafe) {
  TraceAnalysis analysis;
  EXPECT_TRUE(analysis.empty());
  EXPECT_EQ(analysis.num_stages(), 0u);
  EXPECT_EQ(analysis.busy_time(0), 0.0);
  EXPECT_EQ(analysis.comm_overlap_fraction(), 0.0);
  EXPECT_EQ(analysis.mean_utilization(), 0.0);
}

}  // namespace
}  // namespace avgpipe::trace
