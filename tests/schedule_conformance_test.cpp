#include <gtest/gtest.h>

#include <sstream>

#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "runtime/pipeline_runtime.hpp"
#include "sim/simulator.hpp"
#include "trace/analysis.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

/// Schedule-conformance suite: both executors claim to honour each stage's
/// instruction stream verbatim (the property that makes 1F1B's stalls and
/// AFP's overlap *emergent*). Here we replay their execution traces and hold
/// them against schedule::make_schedule — order, in-flight bounds and the
/// AFP-overlaps-communication acceptance claim.

namespace avgpipe {
namespace {

using schedule::Instr;
using schedule::OpKind;

std::string print_ops(const std::vector<Instr>& ops) {
  schedule::StageStream s;
  s.instrs = ops;
  return schedule::format_stream(s);
}

/// The compute instructions (F/B/U) of one stage's generated stream.
std::vector<Instr> expected_ops(const schedule::ScheduleParams& params,
                                std::size_t stage) {
  const schedule::PipelineSchedule sched = schedule::make_schedule(params);
  std::vector<Instr> ops;
  for (const auto& instr : sched.stages[stage].instrs) {
    if (instr.kind != OpKind::kAllReduce) ops.push_back(instr);
  }
  return ops;
}

/// Walk a replayed stream and return the max number of stashed micro-batches
/// observed at any forward's begin (forwards already executed minus
/// backwards already executed) — the trace-side activation-stash bound.
std::size_t max_stash_at_forward(const std::vector<Instr>& ops) {
  std::size_t forwards = 0, backwards = 0, peak = 0;
  for (const auto& op : ops) {
    switch (op.kind) {
      case OpKind::kForward:
        peak = std::max(peak, forwards - backwards);
        ++forwards;
        break;
      case OpKind::kBackward: ++backwards; break;
      default: break;
    }
  }
  return peak;
}

// -- simulator conformance --------------------------------------------------------

struct SimCase {
  const char* name;
  schedule::Kind kind;
  std::size_t advance;  ///< AFP only
};

trace::TraceAnalysis run_sim_traced(const workloads::WorkloadProfile& w,
                                    schedule::Kind kind, std::size_t m,
                                    std::size_t advance,
                                    std::size_t num_batches,
                                    std::size_t pipelines = 1) {
  const auto cluster = workloads::v100_cluster(w.num_gpus);
  const auto part = partition::pipedream_partition(w, cluster, w.num_gpus);
  sim::SystemConfig sys;
  sys.kind = kind;
  sys.micro_batches = m;
  sys.num_pipelines = pipelines;
  sys.elastic_averaging = pipelines > 1;
  sys.advance_num = advance;
  auto job = sim::build_job(w, cluster, part, sys, w.batch_size, num_batches);
  job.memory_limit = 1e18;
  trace::Tracer tracer;
  job.tracer = &tracer;
  sim::simulate(job);
  return trace::TraceAnalysis(tracer.collect());
}

class SimConformanceTest : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimConformanceTest, TraceReplaysScheduleVerbatim) {
  const auto& c = GetParam();
  const auto w = workloads::awd_profile();  // K = 4
  const std::size_t m = 8, batches = 2;
  const auto analysis = run_sim_traced(w, c.kind, m, c.advance, batches);
  ASSERT_EQ(analysis.num_stages(), w.num_gpus);

  schedule::ScheduleParams params;
  params.kind = c.kind;
  params.num_stages = w.num_gpus;
  params.micro_batches = m;
  params.num_batches = batches;
  params.advance_num = c.advance;
  for (std::size_t k = 0; k < w.num_gpus; ++k) {
    const auto replayed = analysis.stage_ops(0, k);
    const auto expected = expected_ops(params, k);
    EXPECT_EQ(replayed, expected)
        << "stage " << k << "\n  replayed: " << print_ops(replayed)
        << "\n  expected: " << print_ops(expected);
  }
}

TEST_P(SimConformanceTest, BothPipelinesReplayTheSchedule) {
  const auto& c = GetParam();
  const auto w = workloads::toy_two_stage_profile();
  const std::size_t m = 4, batches = 2;
  const auto analysis =
      run_sim_traced(w, c.kind, m, c.advance, batches, /*pipelines=*/2);
  ASSERT_EQ(analysis.num_pipelines(), 2u);

  schedule::ScheduleParams params;
  params.kind = c.kind;
  params.num_stages = w.num_gpus;
  params.micro_batches = m;
  params.num_batches = batches;
  params.advance_num = c.advance;
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t k = 0; k < w.num_gpus; ++k) {
      EXPECT_EQ(analysis.stage_ops(p, k), expected_ops(params, k))
          << "pipeline " << p << " stage " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SimConformanceTest,
    ::testing::Values(SimCase{"AFAB", schedule::Kind::kAfab, 0},
                      SimCase{"OneFOneB", schedule::Kind::kOneFOneB, 0},
                      SimCase{"AFP", schedule::Kind::kAdvanceForward, 5}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(SimConformanceTest, OneFOneBNeverExceedsKMinus1InFlight) {
  // 1F1B's contract (paper §2): at most K-1 = advance_num forwards are
  // stashed when any forward starts, on every stage.
  const auto w = workloads::awd_profile();
  const std::size_t k_stages = w.num_gpus;
  const auto analysis =
      run_sim_traced(w, schedule::Kind::kOneFOneB, 8, 0, 2);
  for (std::size_t k = 0; k < k_stages; ++k) {
    const auto ops = analysis.stage_ops(0, k);
    ASSERT_FALSE(ops.empty());
    EXPECT_LE(max_stash_at_forward(ops), k_stages - 1) << "stage " << k;
  }
}

TEST(SimConformanceTest, AfpInFlightBoundedByAdvanceNum) {
  const auto w = workloads::awd_profile();
  for (std::size_t advance : {3u, 5u, 8u}) {
    const auto analysis = run_sim_traced(
        w, schedule::Kind::kAdvanceForward, 8, advance, 2);
    for (std::size_t k = 0; k < w.num_gpus; ++k) {
      const auto ops = analysis.stage_ops(0, k);
      ASSERT_FALSE(ops.empty());
      EXPECT_LE(max_stash_at_forward(ops), advance)
          << "advance " << advance << " stage " << k;
      // The stage-0 warmup must actually use the advance budget, or AFP
      // degenerates to 1F1B silently.
      if (k == 0) {
        EXPECT_EQ(max_stash_at_forward(ops), std::min<std::size_t>(advance, 7))
            << "advance " << advance;
      }
    }
  }
}

TEST(SimConformanceTest, AfabBackwardOnlyAfterAllForwards) {
  const auto w = workloads::awd_profile();
  const std::size_t m = 8, batches = 2;
  const auto analysis = run_sim_traced(w, schedule::Kind::kAfab, m, 0, batches);
  for (std::size_t k = 0; k < w.num_gpus; ++k) {
    std::vector<std::size_t> forwards_seen(batches, 0);
    for (const auto& op : analysis.stage_ops(0, k)) {
      const auto b = static_cast<std::size_t>(op.batch);
      if (op.kind == OpKind::kForward) ++forwards_seen[b];
      if (op.kind == OpKind::kBackward) {
        EXPECT_EQ(forwards_seen[b], m)
            << "stage " << k << " batch " << b
            << ": backward before all forwards";
      }
    }
  }
}

// -- threaded-runtime conformance -------------------------------------------------

runtime::OptimizerFactory sgd_factory(double lr) {
  return [lr](std::vector<tensor::Variable> params) {
    return std::make_unique<optim::Sgd>(std::move(params), lr);
  };
}

class RuntimeConformanceTest
    : public ::testing::TestWithParam<schedule::Kind> {};

TEST_P(RuntimeConformanceTest, TraceReplaysScheduleVerbatim) {
  const schedule::Kind kind = GetParam();
  const std::size_t micro = 4, num_batches = 2;
  const std::size_t advance =
      kind == schedule::Kind::kAdvanceForward ? 3 : 0;
  data::SyntheticFeatures ds(24, 6, 3, 21);
  data::DataLoader loader(ds, 12, 5);

  trace::Tracer tracer;
  nn::Sequential model = nn::make_mlp(6, 8, 3, 3, /*seed=*/77);
  runtime::PipelineRuntime rt(model, {2, 4}, sgd_factory(0.1),
                              runtime::cross_entropy_loss(),
                              {.kind = kind,
                               .advance_num = advance,
                               .micro_batches = micro,
                               .tracer = &tracer});
  for (std::size_t b = 0; b < num_batches; ++b) {
    rt.train_batch(loader.batch(0, b));
  }
  const trace::TraceAnalysis analysis(tracer.collect());

  // The runtime builds one batch's schedule (num_batches = 1) and replays it
  // every batch, so the expected replay is the one-batch stream repeated,
  // repeat b tagged with its step b.
  schedule::ScheduleParams params;
  params.kind = kind;
  params.num_stages = rt.num_stages();
  params.micro_batches = micro;
  params.num_batches = 1;
  params.advance_num = advance == 0 ? rt.num_stages() - 1 : advance;
  for (std::size_t k = 0; k < rt.num_stages(); ++k) {
    const auto one_batch = expected_ops(params, k);
    std::vector<Instr> expected;
    for (std::size_t b = 0; b < num_batches; ++b) {
      for (Instr op : one_batch) {
        op.batch = static_cast<int>(b);
        expected.push_back(op);
      }
    }
    const auto replayed = analysis.stage_ops(0, k);
    EXPECT_EQ(replayed, expected)
        << "stage " << k << "\n  replayed: " << print_ops(replayed)
        << "\n  expected: " << print_ops(expected);
  }
}

TEST_P(RuntimeConformanceTest, InFlightBoundsHold) {
  const schedule::Kind kind = GetParam();
  const std::size_t micro = 6;
  const std::size_t advance =
      kind == schedule::Kind::kAdvanceForward ? 4 : 0;
  data::SyntheticFeatures ds(24, 6, 3, 21);
  data::DataLoader loader(ds, 12, 5);

  trace::Tracer tracer;
  nn::Sequential model = nn::make_mlp(6, 8, 3, 3, 77);
  runtime::PipelineRuntime rt(model, {2, 4}, sgd_factory(0.1),
                              runtime::cross_entropy_loss(),
                              {.kind = kind,
                               .advance_num = advance,
                               .micro_batches = micro,
                               .tracer = &tracer});
  rt.train_batch(loader.batch(0, 0));
  const trace::TraceAnalysis analysis(tracer.collect());

  const std::size_t k_stages = rt.num_stages();
  for (std::size_t k = 0; k < k_stages; ++k) {
    const auto ops = analysis.stage_ops(0, k);
    ASSERT_FALSE(ops.empty());
    const std::size_t stash = max_stash_at_forward(ops);
    switch (kind) {
      case schedule::Kind::kAfab:
        EXPECT_LE(stash, micro);
        break;
      case schedule::Kind::kOneFOneB:
        EXPECT_LE(stash, k_stages - 1) << "stage " << k;
        break;
      default:
        EXPECT_LE(stash, advance) << "stage " << k;
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, RuntimeConformanceTest,
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

// -- acceptance: AFP overlaps communication where 1F1B stalls ---------------------

TEST(OverlapAcceptanceTest, AfpOverlapsStrictlyMoreCommThan1F1B) {
  // The PR's acceptance claim, on a 4-stage / 8-micro-batch job: the AFP run
  // must overlap a strictly larger fraction of its communication with
  // compute than the 1F1B run of the same job (paper §4: advance forwards
  // fill the stalls 1F1B spends waiting for gradients).
  const auto w = workloads::awd_profile();
  ASSERT_EQ(w.num_gpus, 4u);
  const std::size_t m = 8;
  const auto f1b = run_sim_traced(w, schedule::Kind::kOneFOneB, m, 0, 2);
  const auto afp =
      run_sim_traced(w, schedule::Kind::kAdvanceForward, m, m, 2);

  const double f1b_overlap = f1b.comm_overlap_fraction();
  const double afp_overlap = afp.comm_overlap_fraction();
  EXPECT_GT(f1b.comm_time(1), 0.0);
  EXPECT_GT(afp_overlap, f1b_overlap)
      << "AFP overlap " << afp_overlap << " vs 1F1B " << f1b_overlap;
}

TEST(OverlapAcceptanceTest, AcceptanceTraceSurvivesChromeRoundTrip) {
  // The same 4-stage/8-micro-batch AFP trace must export to Chrome JSON and
  // parse back to the identical span list (what a human loads in Perfetto is
  // what the analysis saw).
  const auto w = workloads::awd_profile();
  const auto afp =
      run_sim_traced(w, schedule::Kind::kAdvanceForward, 8, 8, 2);
  ASSERT_FALSE(afp.events().empty());

  std::ostringstream os;
  trace::write_chrome_trace(os, afp.events());
  std::istringstream is(os.str());
  const auto parsed = trace::parse_chrome_trace(is);
  ASSERT_EQ(parsed.size(), afp.events().size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    ASSERT_EQ(parsed[i], afp.events()[i]) << "event " << i;
  }
}

}  // namespace
}  // namespace avgpipe
