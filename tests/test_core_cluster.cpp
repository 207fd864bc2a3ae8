/// \file test_core_cluster.cpp
/// \brief Unit tests for Core and Cluster epoch execution.
#include <gtest/gtest.h>

#include "hw/cluster.hpp"
#include "support/kernel_calls.hpp"

namespace prime::hw {
namespace {

using testing_support::run_epoch;

ClusterParams quiet_params() {
  ClusterParams p;
  p.cores = 4;
  p.initial_opp = 9;
  return p;
}

/// One core on the xu3 table: that core's busy/idle split is the epoch's.
ClusterParams one_core() {
  ClusterParams p = quiet_params();
  p.cores = 1;
  return p;
}

TEST(Core, BusyTimeIsWorkOverFrequency) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, one_core());
  const auto work =
      static_cast<common::Cycles>(0.010 * c.current_opp().frequency);
  const auto r = run_epoch(c, {work}, 0.040);
  EXPECT_NEAR(r.core_busy[0], 0.010, 1e-8);
  EXPECT_NEAR(c.core(0).pmu().snapshot().idle_time, 0.030, 1e-8);
}

TEST(Core, OverrunYieldsZeroIdle) {
  const OppTable t = OppTable::odroid_xu3_a15();
  ClusterParams p = one_core();
  p.initial_opp = 0;  // slowest OPP, and no DVFS stall to pad the window
  Cluster c(t, p);
  const auto r = run_epoch(c, {100000000}, 0.040);
  EXPECT_GT(r.core_busy[0], 0.040);
  EXPECT_DOUBLE_EQ(c.core(0).pmu().snapshot().idle_time, 0.0);
}

TEST(Core, EnergyPositiveEvenWhenIdle) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, one_core());
  const auto r = run_epoch(c, {0}, 0.040);
  EXPECT_DOUBLE_EQ(r.core_busy[0], 0.0);
  EXPECT_GT(c.core(0).total_energy(), 0.0);  // idle + leakage power
}

TEST(Core, PmuAccumulatesAcrossEpochs) {
  Core core(0);
  core.account(1000, 1.0e-6, 0.039, 0.5);
  core.account(2000, 2.0e-6, 0.038, 0.25);
  EXPECT_EQ(core.pmu().snapshot().cycles, 3000u);
  EXPECT_DOUBLE_EQ(core.total_energy(), 0.75);
}

TEST(Core, ResetClearsAccounting) {
  Core core(0);
  core.account(1000, 1.0e-6, 0.039, 0.5);
  core.reset();
  EXPECT_EQ(core.pmu().snapshot().cycles, 0u);
  EXPECT_DOUBLE_EQ(core.total_energy(), 0.0);
}

TEST(Cluster, FrameTimeIsSlowetCore) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, quiet_params());
  // Core 2 gets double work: it defines the frame time.
  const auto opp = c.current_opp();
  const common::Cycles base = 10000000;
  const auto r = run_epoch(c, {base, base, 2 * base, base}, 0.040);
  EXPECT_NEAR(r.frame_time, common::time_for(2 * base, opp.frequency), 1e-9);
}

TEST(Cluster, DeadlineDetection) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, quiet_params());
  const auto light = run_epoch(c, {1000, 1000, 1000, 1000}, 0.040);
  EXPECT_TRUE(light.deadline_met);
  EXPECT_DOUBLE_EQ(light.window, 0.040);  // early finish pads to the period
  c.set_opp(0);
  const auto heavy = run_epoch(c, {50000000, 0, 0, 0}, 0.040);
  EXPECT_FALSE(heavy.deadline_met);
  EXPECT_GT(heavy.window, 0.040);  // overrun extends the window
}

TEST(Cluster, DvfsStallChargedToNextEpoch) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, quiet_params());
  const double stall = c.set_opp(18);
  EXPECT_GT(stall, 0.0);
  const auto r = run_epoch(c, {1000, 1000, 1000, 1000}, 0.040);
  EXPECT_DOUBLE_EQ(r.dvfs_stall, stall);
  const auto r2 = run_epoch(c, {1000, 1000, 1000, 1000}, 0.040);
  EXPECT_DOUBLE_EQ(r2.dvfs_stall, 0.0);  // consumed
}

TEST(Cluster, EnergyGrowsWithFrequencyForFixedWindow) {
  const OppTable t = OppTable::odroid_xu3_a15();
  const std::vector<common::Cycles> work{5000000, 5000000, 5000000, 5000000};
  Cluster slow(t, quiet_params());
  slow.set_opp(2);
  Cluster fast(t, quiet_params());
  fast.set_opp(18);
  const auto rs = run_epoch(slow, work, 0.040);
  const auto rf = run_epoch(fast, work, 0.040);
  ASSERT_TRUE(rs.deadline_met);
  ASSERT_TRUE(rf.deadline_met);
  // Same work, same 40 ms window: the faster/higher-V run burns more energy
  // (race-to-idle does not pay off under quadratic voltage cost).
  EXPECT_GT(rf.energy, rs.energy);
}

TEST(Cluster, MissingWorkEntriesMeanIdleCores) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, quiet_params());
  const auto r = run_epoch(c, {10000000}, 0.040);
  EXPECT_EQ(r.core_cycles.size(), 4u);
  EXPECT_EQ(r.core_cycles[1], 0u);
  EXPECT_DOUBLE_EQ(r.core_busy[3], 0.0);
}

TEST(Cluster, TemperatureRisesUnderLoad) {
  const OppTable t = OppTable::odroid_xu3_a15();
  ClusterParams p = quiet_params();
  p.thermal.t_init = 30.0;
  Cluster c(t, p);
  c.set_opp(18);
  double last = 30.0;
  for (int i = 0; i < 50; ++i) {
    const auto r = run_epoch(c, {60000000, 60000000, 60000000, 60000000}, 0.040);
    last = r.temperature;
  }
  EXPECT_GT(last, 45.0);
}

TEST(Cluster, TotalsAccumulateAndReset) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, quiet_params());
  (void)run_epoch(c, {1000000, 1000000, 1000000, 1000000}, 0.040);
  (void)run_epoch(c, {1000000, 1000000, 1000000, 1000000}, 0.040);
  EXPECT_NEAR(c.total_time(), 0.080, 1e-9);
  EXPECT_GT(c.total_energy(), 0.0);
  c.reset();
  EXPECT_DOUBLE_EQ(c.total_time(), 0.0);
  EXPECT_DOUBLE_EQ(c.total_energy(), 0.0);
  EXPECT_EQ(c.current_opp_index(), quiet_params().initial_opp);
}

TEST(Cluster, AvgPowerConsistentWithEnergy) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, quiet_params());
  const auto r = run_epoch(c, {20000000, 20000000, 20000000, 20000000}, 0.040);
  EXPECT_NEAR(r.avg_power * r.window, r.energy, 1e-9);
}

/// Property: across all OPPs, executing a feasible fixed workload to the
/// deadline consumes monotonically more energy at higher OPPs (idle-padded).
class ClusterOppSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ClusterOppSweep, FeasibleEpochAccountingInvariants) {
  const OppTable t = OppTable::odroid_xu3_a15();
  Cluster c(t, quiet_params());
  c.set_opp(GetParam());
  const auto r = run_epoch(c, {4000000, 4000000, 4000000, 4000000}, 0.040);
  EXPECT_GT(r.energy, 0.0);
  EXPECT_GE(r.window, r.frame_time - 1e-12);
  EXPECT_EQ(r.core_cycles.size(), 4u);
  EXPECT_NEAR(r.avg_power * r.window, r.energy, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllOpps, ClusterOppSweep,
                         ::testing::Range(std::size_t{0}, std::size_t{19},
                                          std::size_t{3}));

}  // namespace
}  // namespace prime::hw
