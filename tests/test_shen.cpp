/// \file test_shen.cpp
/// \brief Unit tests for the UPD RL baseline [21].
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "gov/shen_rl.hpp"

namespace prime::gov {
namespace {

DecisionContext make_ctx(const hw::OppTable& opps) {
  DecisionContext ctx;
  ctx.period = 0.040;
  ctx.cores = 4;
  ctx.opps = &opps;
  return ctx;
}

EpochObservation make_obs(const hw::OppTable& opps, std::size_t opp_index,
                          double load, bool met = true) {
  EpochObservation o;
  o.period = 0.040;
  o.window = 0.040;
  o.frame_time = met ? load * 0.040 : 0.05;
  o.opp_index = opp_index;
  const common::Cycles c =
      common::cycles_at(opps.at(opp_index).frequency, load * 0.040);
  o.core_cycles = {c, c, c, c};
  o.total_cycles = 4 * c;
  o.deadline_met = met;
  return o;
}

TEST(ShenRl, ExplorationCountGrowsDuringLearning) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  ShenRlGovernor g;
  auto ctx = make_ctx(opps);
  std::optional<EpochObservation> obs;
  for (int i = 0; i < 100; ++i) {
    const auto idx = g.decide(ctx, obs);
    obs = make_obs(opps, idx, 0.5);
  }
  // Epsilon ~ 0.993^i stays high for 100 epochs: nearly all explored.
  EXPECT_GT(g.exploration_count(), 60u);
}

TEST(ShenRl, GeometricScheduleHitsFloorNear660) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  ShenRlGovernor g;
  auto ctx = make_ctx(opps);
  std::optional<EpochObservation> obs;
  for (int i = 0; i < 800; ++i) {
    const auto idx = g.decide(ctx, obs);
    obs = make_obs(opps, idx, 0.5);
  }
  EXPECT_NEAR(static_cast<double>(g.learning_complete_epoch()), 656.0, 10.0);
}

TEST(ShenRl, PendingActionDoesNotOutliveATableResize) {
  // A governor moved to a board with fewer OPPs rebuilds its table. The
  // (state, action) it took on the old board lies past the end of the new
  // one, so the first observation on the new board must not credit it.
  const hw::OppTable big = hw::OppTable::odroid_xu3_a15();
  const hw::OppTable small = hw::OppTable::linear(2, 3.0e8, 1.0e9, 0.9, 1.0);
  ShenRlGovernor g;
  const std::size_t first = g.decide(make_ctx(big), std::nullopt);
  ASSERT_GE(first, small.size());  // pending cell 24 * 2 + first >= 50 cells
  const std::size_t next = g.decide(make_ctx(small), make_obs(small, 0, 0.5));
  EXPECT_LT(next, small.size());
  EXPECT_EQ(g.greedy_policy(), std::vector<std::size_t>(25, 0));
}

TEST(ShenRl, DeterministicForSeed) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  ShenRlParams p;
  p.seed = 5;
  ShenRlGovernor a(p);
  ShenRlGovernor b(p);
  auto ctx = make_ctx(opps);
  std::optional<EpochObservation> oa;
  std::optional<EpochObservation> ob;
  for (int i = 0; i < 60; ++i) {
    const auto ia = a.decide(ctx, oa);
    const auto ib = b.decide(ctx, ob);
    ASSERT_EQ(ia, ib);
    oa = make_obs(opps, ia, 0.4);
    ob = make_obs(opps, ib, 0.4);
  }
}

TEST(ShenRl, RewardPenalisesPowerWhenGreedy) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  ShenRlParams p;
  p.epsilon0 = 0.0;  // greedy from the start
  p.epsilon_min = 0.0;
  ShenRlGovernor g(p);
  auto ctx = make_ctx(opps);
  std::optional<EpochObservation> obs;
  std::size_t idx = g.decide(ctx, obs);
  // All actions meet the deadline comfortably: power term should drag the
  // greedy policy down the table over time.
  for (int i = 0; i < 200; ++i) {
    obs = make_obs(opps, idx, 0.2, true);
    idx = g.decide(ctx, obs);
  }
  EXPECT_LT(idx, opps.size() / 2);
}

TEST(ShenRl, GreedyPolicySized) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  ShenRlParams p;
  ShenRlGovernor g(p);
  (void)g.decide(make_ctx(opps), std::nullopt);
  EXPECT_EQ(g.greedy_policy().size(), p.workload_levels * p.slack_levels);
}

TEST(ShenRl, ResetRestartsSchedule) {
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  ShenRlGovernor g;
  auto ctx = make_ctx(opps);
  std::optional<EpochObservation> obs;
  for (int i = 0; i < 50; ++i) {
    const auto idx = g.decide(ctx, obs);
    obs = make_obs(opps, idx, 0.5);
  }
  g.reset();
  EXPECT_DOUBLE_EQ(g.epsilon(), 1.0);
  EXPECT_EQ(g.exploration_count(), 0u);
  EXPECT_EQ(g.learning_complete_epoch(), 0u);
}

TEST(ShenRl, NameIdentifiesUpd) {
  ShenRlGovernor g;
  EXPECT_EQ(g.name(), "shen-rl-upd");
}

}  // namespace
}  // namespace prime::gov
