#include "verify/verifier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "nn/models.hpp"
#include "runtime/pipeline_runtime.hpp"
#include "schedule/schedule.hpp"

namespace avgpipe::verify {
namespace {

/// The model checker against its own acceptance grid: every flushed
/// schedule at the runtime's derived capacity is deadlock-free with a peak
/// link occupancy of exactly capacity - 1, removing the slack produces a
/// reported counterexample instead of a hang, and the exact peaks agree
/// with the schedule checker and the threaded runtime's derivations.

ModelConfig make_config(schedule::Kind kind, std::size_t k, std::size_t m,
                        std::size_t advance = 0) {
  ModelConfig cfg;
  cfg.kind = kind;
  cfg.num_stages = k;
  cfg.micro_batches = m;
  cfg.advance_num = advance;
  return cfg;
}

TEST(VerifierGridTest, DerivedCapacityIsDeadlockFreeWithExactPeak) {
  const schedule::Kind kinds[] = {schedule::Kind::kAfab,
                                  schedule::Kind::kOneFOneB,
                                  schedule::Kind::kAdvanceForward};
  for (const auto kind : kinds) {
    for (std::size_t k = 2; k <= 4; ++k) {
      for (std::size_t m = 2; m <= 8; ++m) {
        std::vector<std::size_t> advances{0};
        if (kind == schedule::Kind::kAdvanceForward) {
          advances = {k - 1, k, std::max(m, k - 1)};
          std::sort(advances.begin(), advances.end());
          advances.erase(std::unique(advances.begin(), advances.end()),
                         advances.end());
        }
        for (const auto adv : advances) {
          const ModelConfig cfg = make_config(kind, k, m, adv);
          const Report r = verify(cfg);
          SCOPED_TRACE(::testing::Message()
                       << schedule::to_string(kind) << " K=" << k
                       << " M=" << m << " advance=" << adv);
          EXPECT_EQ(r.verdict, Verdict::kOk) << r.diagnosis;
          EXPECT_TRUE(r.complete);
          EXPECT_TRUE(r.counterexample.empty());
          EXPECT_EQ(r.link_capacity_used, r.derived_link_capacity);
          EXPECT_EQ(r.peak_link_occupancy, r.derived_link_capacity - 1);
          EXPECT_EQ(r.peak_link_occupancy,
                    schedule::max_send_run_ahead(kind, k, m,
                                                 adv == 0 ? k - 1 : adv));
        }
      }
    }
  }
}

TEST(VerifierGridTest, NoSlackReportsParkedSendWithCounterexample) {
  // capacity = run-ahead (the "+1 slack" removed): the link fills, and the
  // verifier must report the shortest filling trace — not hang, not pass.
  for (std::size_t k = 2; k <= 4; ++k) {
    ModelConfig cfg = make_config(schedule::Kind::kOneFOneB, k, 4);
    cfg.link_capacity =
        schedule::max_send_run_ahead(cfg.kind, k, cfg.micro_batches, k - 1);
    const Report r = verify(cfg);
    SCOPED_TRACE(::testing::Message() << "K=" << k);
    EXPECT_EQ(r.verdict, Verdict::kSendParked);
    EXPECT_FALSE(r.ok());
    ASSERT_FALSE(r.counterexample.empty());
    EXPECT_NE(r.diagnosis.find("parks"), std::string::npos) << r.diagnosis;
    EXPECT_NE(r.counterexample.back().action.find("LINK FULL"),
              std::string::npos);
    EXPECT_EQ(r.link_capacity_used, r.derived_link_capacity - 1);
  }
}

TEST(VerifierGridTest, AnyPositiveCapacityIsDeadlockFreeUnderBlocking) {
  // The deeper theorem the slack check rides on: with blocking sends, the
  // flushed schedules cannot classically deadlock at ANY capacity >= 1 —
  // under-provisioning costs stalls, never progress.
  const ModelConfig base[] = {
      make_config(schedule::Kind::kAfab, 2, 4),
      make_config(schedule::Kind::kOneFOneB, 3, 4),
      make_config(schedule::Kind::kAdvanceForward, 3, 5, 3),
  };
  for (const auto& b : base) {
    for (std::size_t cap = 1; cap <= 2; ++cap) {
      ModelConfig cfg = b;
      cfg.link_capacity = cap;
      cfg.check_send_parking = false;
      const Report r = verify(cfg);
      SCOPED_TRACE(::testing::Message() << schedule::to_string(cfg.kind)
                                        << " cap=" << cap);
      EXPECT_EQ(r.verdict, Verdict::kOk) << r.diagnosis;
      EXPECT_TRUE(r.complete);
      EXPECT_LE(r.peak_link_occupancy, cap);
    }
  }
}

TEST(VerifierTest, PeakStashMatchesScheduleChecker) {
  const ModelConfig cases[] = {
      make_config(schedule::Kind::kAfab, 2, 3),
      make_config(schedule::Kind::kOneFOneB, 3, 4),
      make_config(schedule::Kind::kAdvanceForward, 3, 6, 4),
  };
  for (const auto& cfg : cases) {
    const Report r = verify(cfg);
    ASSERT_EQ(r.verdict, Verdict::kOk) << r.diagnosis;

    schedule::ScheduleParams params;
    params.kind = cfg.kind;
    params.num_stages = cfg.num_stages;
    params.micro_batches = cfg.micro_batches;
    params.num_batches = cfg.num_batches;
    params.advance_num =
        cfg.advance_num == 0 ? cfg.num_stages - 1 : cfg.advance_num;
    const auto check = schedule::check_schedule(
        schedule::make_schedule(params), params.micro_batches,
        params.num_batches);
    ASSERT_TRUE(check.ok) << check.error;
    ASSERT_EQ(r.peak_stash.size(), check.max_in_flight.size());
    for (std::size_t s = 0; s < r.peak_stash.size(); ++s) {
      EXPECT_EQ(r.peak_stash[s], check.max_in_flight[s])
          << schedule::to_string(cfg.kind) << " stage " << s;
    }
  }
}

TEST(VerifierTest, PartialOrderReductionPreservesStatesAndPeaks) {
  // Sleep sets prune redundant *transitions*, never states, so the full
  // and the reduced exploration must agree on every reported number except
  // the transition/skip counters.
  ModelConfig cfg = make_config(schedule::Kind::kOneFOneB, 3, 3);
  ModelConfig full = cfg;
  full.partial_order_reduction = false;
  const Report a = verify(cfg);
  const Report b = verify(full);
  ASSERT_EQ(a.verdict, Verdict::kOk) << a.diagnosis;
  ASSERT_EQ(b.verdict, Verdict::kOk) << b.diagnosis;
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.peak_link_occupancy, b.peak_link_occupancy);
  EXPECT_EQ(a.peak_in_flight, b.peak_in_flight);
  EXPECT_EQ(a.peak_stash, b.peak_stash);
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (std::size_t c = 0; c < a.channels.size(); ++c) {
    EXPECT_EQ(a.channels[c].peak, b.channels[c].peak) << a.channels[c].name;
  }
  // The reduction must actually prune interleavings, not just match them.
  EXPECT_LT(a.transitions, b.transitions);
}

TEST(VerifierTest, ElasticModesVerifyCleanly) {
  ModelConfig plain = make_config(schedule::Kind::kOneFOneB, 2, 2);
  plain.num_batches = 3;
  const Report none = verify(plain);
  ASSERT_EQ(none.verdict, Verdict::kOk) << none.diagnosis;
  for (const std::size_t lag : {0u, 2u}) {  // lag 0 is sync
    ModelConfig cfg = plain;
    cfg.elastic = ElasticMode::kElastic;
    cfg.sync_lag = lag;
    const Report r = verify(cfg);
    SCOPED_TRACE("lag " + std::to_string(lag));
    EXPECT_EQ(r.verdict, Verdict::kOk) << r.diagnosis;
    EXPECT_TRUE(r.complete);
    if (lag == 0) {
      // The driver folds after its joins, where no stage waits: lag 0 adds
      // no protocol action, so it explores exactly the plain pipeline.
      EXPECT_EQ(r.states, none.states);
      EXPECT_EQ(r.transitions, none.transitions);
      EXPECT_EQ(r.channels.size(), none.channels.size());
    } else {
      EXPECT_GT(r.states, none.states);  // stages wait on the driver's folds
    }
  }
}

TEST(VerifierTest, InvalidConfigurationsAreRejectedNotExplored) {
  ModelConfig unflushed = make_config(schedule::Kind::kPipeDream, 2, 2);
  EXPECT_EQ(verify(unflushed).verdict, Verdict::kInvalidSchedule);

  // AFP advance below the 1F1B minimum K-1.
  ModelConfig low_advance =
      make_config(schedule::Kind::kAdvanceForward, 4, 8, 2);
  EXPECT_EQ(verify(low_advance).verdict, Verdict::kInvalidSchedule);

  ModelConfig no_micro = make_config(schedule::Kind::kOneFOneB, 2, 0);
  EXPECT_EQ(verify(no_micro).verdict, Verdict::kInvalidSchedule);
}

TEST(VerifierTest, StateLimitReportsIncompleteInsteadOfRunningAway) {
  ModelConfig cfg = make_config(schedule::Kind::kAfab, 4, 8);
  cfg.max_states = 64;
  const Report r = verify(cfg);
  EXPECT_EQ(r.verdict, Verdict::kStateLimit);
  EXPECT_FALSE(r.complete);
  EXPECT_LE(r.states, 64u + 16u);  // bounded overshoot of one BFS layer
}

TEST(VerifierTest, FormatReportMentionsVerdictAndPeaks) {
  const ModelConfig cfg = make_config(schedule::Kind::kOneFOneB, 3, 4);
  const Report r = verify(cfg);
  const std::string text = format_report(cfg, r);
  EXPECT_NE(text.find("deadlock-free"), std::string::npos) << text;
  EXPECT_NE(text.find("peak link occupancy"), std::string::npos);
}

TEST(VerifierRuntimeCrossCheckTest, DerivedCapacityMatchesRuntime) {
  // The verifier's capacity derivation and the threaded runtime's
  // link_capacity() must be the same function of (kind, K, M, advance) —
  // both sit on schedule::max_send_run_ahead.
  struct Case {
    schedule::Kind kind;
    std::size_t advance;
  };
  const Case cases[] = {{schedule::Kind::kAfab, 0},
                        {schedule::Kind::kOneFOneB, 0},
                        {schedule::Kind::kAdvanceForward, 4}};
  for (const auto& c : cases) {
    nn::Sequential model = nn::make_mlp(5, 8, 3, 3, 42);
    runtime::PipelineRuntime rt(
        model, {2, 4},
        [](std::vector<tensor::Variable> params) {
          return std::make_unique<optim::Sgd>(std::move(params), 0.1);
        },
        runtime::cross_entropy_loss(),
        {.kind = c.kind, .advance_num = c.advance});
    for (const std::size_t m : {std::size_t{2}, std::size_t{6}}) {
      ModelConfig cfg = make_config(c.kind, 3, m, c.advance);
      const Report r = verify(cfg);
      EXPECT_EQ(rt.link_capacity(m), r.derived_link_capacity)
          << schedule::to_string(c.kind) << " M=" << m;
    }
  }
}

}  // namespace
}  // namespace avgpipe::verify
