/// \file test_fleet.cpp
/// \brief Tests for the fleet population subsystem: shard planning,
///        population decoding and seed stability, exact merge semantics,
///        the sealed shard-summary format, and the multi-process driver's
///        differential and failure-injection properties.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "fleet/driver.hpp"
#include "fleet/population.hpp"
#include "fleet/runner.hpp"
#include "fleet/summary.hpp"
#include "support/format_artefacts.hpp"

namespace prime::fleet {
namespace {

/// A per-test scratch directory, wiped first: several tests assert on how
/// many workers were launched, and a summary left behind by a previous test
/// binary run would legitimately (but confusingly) short-circuit them.
std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "fleet-tests/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A tiny population that runs in milliseconds per device: 2 governors x 1
/// workload x 3 replicas = 6 devices of 20 frames each.
PopulationSpec tiny_population() {
  PopulationSpec pop;
  pop.governors = {"performance", "ondemand"};
  pop.workloads = {"flat(mean=2e8,cv=0.1)"};
  pop.fps = {30.0};
  pop.devices_per_cell = 3;
  pop.frames = 20;
  pop.base_seed = 99;
  pop.energy_bins = 64;
  pop.miss_bins = 32;
  pop.perf_bins = 32;
  return pop;
}

std::string report_csv(const PopulationReport& report) {
  std::ostringstream out;
  report.write_csv(out);
  return out.str();
}

// --- ShardPlan ---------------------------------------------------------------

TEST(ShardPlan, TilesTheDeviceRangeExactly) {
  for (const auto& [devices, shards] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 1}, {1, 1}, {7, 3}, {10, 4}, {12, 4}, {3, 8}, {1000, 7}}) {
    const ShardPlan plan(devices, shards);
    std::size_t expected_begin = 0;
    for (std::size_t i = 0; i < shards; ++i) {
      const Shard s = plan.shard(i);
      EXPECT_EQ(s.index, i);
      EXPECT_EQ(s.count, shards);
      EXPECT_EQ(s.device_begin, expected_begin)
          << devices << " devices / " << shards << " shards, shard " << i;
      EXPECT_GE(s.device_end, s.device_begin);
      expected_begin = s.device_end;
    }
    EXPECT_EQ(expected_begin, devices);
  }
}

TEST(ShardPlan, BalancesWithinOneDevice) {
  const ShardPlan plan(1003, 17);
  std::size_t lo = 1003, hi = 0;
  for (const Shard& s : plan.shards()) {
    lo = std::min(lo, s.size());
    hi = std::max(hi, s.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(ShardPlan, RejectsZeroShardsAndOutOfRangeIndex) {
  EXPECT_THROW(ShardPlan(10, 0), std::invalid_argument);
  const ShardPlan plan(10, 3);
  EXPECT_THROW((void)plan.shard(3), std::out_of_range);
}

// --- PopulationSpec ----------------------------------------------------------

TEST(PopulationSpec, DecodesCellsWorkloadMajorThenFpsThenGovernor) {
  PopulationSpec pop;
  pop.governors = {"g0", "g1"};
  pop.workloads = {"w0", "w1", "w2"};
  pop.fps = {30.0, 60.0};
  ASSERT_EQ(pop.cell_count(), 12u);
  // governor varies fastest, then fps, then workload.
  EXPECT_EQ(pop.cell(0).governor, "g0");
  EXPECT_EQ(pop.cell(1).governor, "g1");
  EXPECT_DOUBLE_EQ(pop.cell(0).fps, 30.0);
  EXPECT_DOUBLE_EQ(pop.cell(2).fps, 60.0);
  EXPECT_EQ(pop.cell(0).workload, "w0");
  EXPECT_EQ(pop.cell(4).workload, "w1");
  EXPECT_EQ(pop.cell(11).governor, "g1");
  EXPECT_DOUBLE_EQ(pop.cell(11).fps, 60.0);
  EXPECT_EQ(pop.cell(11).workload, "w2");
}

TEST(PopulationSpec, DeviceSeedsDependOnlyOnThePopulationIndex) {
  const PopulationSpec pop = tiny_population();
  for (std::size_t i = 0; i < pop.device_count(); ++i) {
    const DeviceSpec dev = pop.device(i);
    EXPECT_EQ(dev.index, i);
    EXPECT_EQ(dev.cell, i / pop.devices_per_cell);
    EXPECT_EQ(dev.replica, i % pop.devices_per_cell);
    // The derivation is the pinned derive_seed jump — no shard anywhere.
    EXPECT_EQ(dev.trace_seed, common::derive_seed(pop.base_seed, 3 * i));
    EXPECT_EQ(dev.governor_seed,
              common::derive_seed(pop.base_seed, 3 * i + 1));
    EXPECT_EQ(dev.platform_seed,
              common::derive_seed(pop.base_seed, 3 * i + 2));
  }
}

TEST(PopulationSpec, ArgsRoundTripPreservesTheFingerprint) {
  PopulationSpec pop = tiny_population();
  pop.target_utilisation = 0.3141592653589793;  // exercise %.17g round-trip
  pop.fps = {29.97};
  common::Config cfg;
  for (const auto& arg : pop.to_args()) {
    ASSERT_TRUE(cfg.parse_assignment(arg)) << arg;
  }
  const PopulationSpec reparsed = PopulationSpec::from_config(cfg);
  EXPECT_EQ(reparsed.fingerprint(), pop.fingerprint());
  EXPECT_EQ(reparsed.device_count(), pop.device_count());
}

TEST(PopulationSpec, FingerprintSeparatesDifferentPopulations) {
  const PopulationSpec base = tiny_population();
  PopulationSpec other = base;
  other.base_seed += 1;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.frames += 1;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.governors.push_back("rtm");
  EXPECT_NE(base.fingerprint(), other.fingerprint());
}

TEST(PopulationSpec, ValidateRejectsDegenerateSpecs) {
  PopulationSpec pop = tiny_population();
  pop.governors.clear();
  EXPECT_THROW(pop.validate(), std::invalid_argument);
  pop = tiny_population();
  pop.devices_per_cell = 0;
  EXPECT_THROW(pop.validate(), std::invalid_argument);
  pop = tiny_population();
  pop.frames = 0;
  EXPECT_THROW(pop.validate(), std::invalid_argument);
  pop = tiny_population();
  pop.fps = {-1.0};
  EXPECT_THROW(pop.validate(), std::invalid_argument);
  pop = tiny_population();
  pop.energy_bins = 0;
  EXPECT_THROW(pop.validate(), std::invalid_argument);
}

// --- RunResult / CellStats merge semantics -----------------------------------

/// Dyadic-rational aggregates: f64 addition is exact on these, so the plain
/// RunResult merge can honestly be tested for associativity.
sim::RunResult dyadic_result(std::size_t i) {
  sim::RunResult r;
  r.governor = "g";
  r.application = "a";
  r.epoch_count = 10 + i;
  r.total_energy = 0.25 * static_cast<double>(i + 1);
  r.measured_energy = 0.125 * static_cast<double>(i + 2);
  r.total_time = 0.5 * static_cast<double>(i + 1);
  r.deadline_misses = i % 3;
  r.performance_sum = 1.0 + 0.0625 * static_cast<double>(i);
  r.power_sum = 2.0 + 0.5 * static_cast<double>(i);
  return r;
}

TEST(RunResultMerge, SumsCountsAndFillsEmptyLabels) {
  sim::RunResult acc;
  EXPECT_TRUE(acc.governor.empty());
  acc.merge(dyadic_result(0));
  EXPECT_EQ(acc.governor, "g");
  EXPECT_EQ(acc.application, "a");
  acc.merge(dyadic_result(1));
  EXPECT_EQ(acc.epoch_count, 21u);
  EXPECT_DOUBLE_EQ(acc.total_energy, 0.75);
  EXPECT_DOUBLE_EQ(acc.total_time, 1.5);
  EXPECT_EQ(acc.deadline_misses, 1u);
  // Left-biased labels: a different right-hand name never overwrites.
  sim::RunResult named = dyadic_result(2);
  named.governor = "other";
  acc.merge(named);
  EXPECT_EQ(acc.governor, "g");
}

TEST(RunResultMerge, AssociativeOnDyadicValues) {
  sim::RunResult seq;
  for (std::size_t i = 0; i < 12; ++i) seq.merge(dyadic_result(i));

  sim::RunResult left, mid, right;
  for (std::size_t i = 0; i < 4; ++i) left.merge(dyadic_result(i));
  for (std::size_t i = 4; i < 9; ++i) mid.merge(dyadic_result(i));
  for (std::size_t i = 9; i < 12; ++i) right.merge(dyadic_result(i));
  sim::RunResult grouped = left;
  grouped.merge(mid);
  grouped.merge(right);

  EXPECT_EQ(grouped.epoch_count, seq.epoch_count);
  EXPECT_EQ(grouped.deadline_misses, seq.deadline_misses);
  EXPECT_EQ(grouped.total_energy, seq.total_energy);
  EXPECT_EQ(grouped.measured_energy, seq.measured_energy);
  EXPECT_EQ(grouped.total_time, seq.total_time);
  EXPECT_EQ(grouped.performance_sum, seq.performance_sum);
  EXPECT_EQ(grouped.power_sum, seq.power_sum);
}

/// Random (non-dyadic) per-device results: ExactSum and integer histograms
/// must make the *cell* merge exact even where plain f64 sums would drift.
sim::RunResult random_result(common::Rng& rng) {
  sim::RunResult r;
  r.epoch_count = 20;
  r.total_energy = rng.uniform(0.0, 30.0);
  r.measured_energy = rng.uniform(0.0, 30.0);
  r.total_time = rng.uniform(0.1, 2.0);
  r.deadline_misses = static_cast<std::size_t>(rng.next_u64() % 20);
  r.performance_sum = rng.uniform(10.0, 40.0);
  r.power_sum = rng.uniform(20.0, 90.0);
  return r;
}

void expect_exactly_equal(const CellStats& a, const CellStats& b) {
  EXPECT_EQ(a.devices, b.devices);
  EXPECT_TRUE(a.energy_sum == b.energy_sum);
  EXPECT_TRUE(a.time_sum == b.time_sum);
  EXPECT_TRUE(a.perf_sum == b.perf_sum);
  EXPECT_TRUE(a.power_sum == b.power_sum);
  EXPECT_TRUE(a.miss_sum == b.miss_sum);
  ASSERT_EQ(a.energy_hist.bins(), b.energy_hist.bins());
  for (std::size_t i = 0; i < a.energy_hist.bins(); ++i) {
    EXPECT_EQ(a.energy_hist.bin_count(i), b.energy_hist.bin_count(i));
  }
  EXPECT_EQ(a.miss_hist.count(), b.miss_hist.count());
  EXPECT_EQ(a.perf_hist.count(), b.perf_hist.count());
  EXPECT_EQ(a.mean_energy(), b.mean_energy());  // == , not NEAR: exact merge
  EXPECT_EQ(a.mean_miss_rate(), b.mean_miss_rate());
  EXPECT_EQ(a.mean_performance(), b.mean_performance());
  EXPECT_EQ(a.mean_power(), b.mean_power());
}

TEST(CellStatsMerge, ExactlyOrderAndGroupingInvariant) {
  PopulationSpec pop = tiny_population();
  pop.energy_hi = 32.0;
  common::Rng rng(21);
  std::vector<sim::RunResult> results;
  for (int i = 0; i < 90; ++i) results.push_back(random_result(rng));

  CellStats sequential(pop);
  for (const auto& r : results) sequential.add_device(r);

  // Partition into three shards, merge in two different orders.
  CellStats a(pop), b(pop), c(pop);
  for (std::size_t i = 0; i < results.size(); ++i) {
    (i < 30 ? a : (i < 60 ? b : c)).add_device(results[i]);
  }
  CellStats forward(pop);
  forward.merge(a);
  forward.merge(b);
  forward.merge(c);
  CellStats backward(pop);
  backward.merge(c);
  backward.merge(b);
  backward.merge(a);

  expect_exactly_equal(forward, sequential);
  expect_exactly_equal(backward, sequential);
}

TEST(CellStatsMerge, RejectsForeignHistogramGeometry) {
  const PopulationSpec pop = tiny_population();
  PopulationSpec other = pop;
  other.energy_bins = pop.energy_bins + 1;
  CellStats mine(pop);
  CellStats theirs(other);
  EXPECT_THROW(mine.merge(theirs), std::invalid_argument);
}

TEST(CellStatsMerge, OverflowingSumsFailAsFleetErrorAndChangeNothing) {
  // A loaded (corrupt or forged) summary whose last sum sits at 2^126 grid
  // units: merging it into a copy of itself overflows the accumulator.
  const PopulationSpec pop = tiny_population();
  common::Rng rng(41);
  CellStats mine(pop);
  mine.add_device(random_result(rng));
  std::stringstream buf;
  common::StateWriter w(buf);
  w.u64(0);
  w.u64(std::uint64_t{1} << 62);
  common::StateReader r(buf);
  mine.miss_sum.load_state(r);
  const CellStats before = mine;
  EXPECT_THROW(mine.merge(before), FleetError);
  expect_exactly_equal(mine, before);
}

// --- ShardSummary file format ------------------------------------------------

ShardSummary sample_summary(const PopulationSpec& pop) {
  ShardSummary s;
  s.fingerprint = pop.fingerprint();
  s.shard = Shard{1, 2, 3, 6};
  s.next_device = 5;
  s.started_at_device = 3;
  common::Rng rng(31);
  CellStats stats(pop);
  stats.add_device(random_result(rng));
  stats.add_device(random_result(rng));
  s.cells.emplace(1, stats);
  return s;
}

TEST(ShardSummaryFile, RoundTripsExactly) {
  const PopulationSpec pop = tiny_population();
  const ShardSummary original = sample_summary(pop);
  const std::string path = temp_dir("fsum-roundtrip") + "/s.fsum";
  original.save_file(path);
  const ShardSummary loaded = ShardSummary::load_file(path);
  EXPECT_EQ(loaded.fingerprint, original.fingerprint);
  EXPECT_EQ(loaded.shard.index, 1u);
  EXPECT_EQ(loaded.shard.count, 2u);
  EXPECT_EQ(loaded.shard.device_begin, 3u);
  EXPECT_EQ(loaded.shard.device_end, 6u);
  EXPECT_EQ(loaded.next_device, 5u);
  EXPECT_EQ(loaded.started_at_device, 3u);
  EXPECT_FALSE(loaded.complete());
  ASSERT_EQ(loaded.cells.size(), 1u);
  expect_exactly_equal(loaded.cells.at(1), original.cells.at(1));
  // The RunResult aggregates ride along bit-exact too.
  EXPECT_EQ(loaded.cells.at(1).run.total_energy,
            original.cells.at(1).run.total_energy);
  EXPECT_EQ(loaded.cells.at(1).run.epoch_count,
            original.cells.at(1).run.epoch_count);
}

TEST(ShardSummaryFile, RejectsInconsistentProgress) {
  const PopulationSpec pop = tiny_population();
  ShardSummary s = sample_summary(pop);
  s.next_device = 99;  // outside [device_begin, device_end]
  const std::string path = temp_dir("fsum-progress") + "/s.fsum";
  s.save_file(path);
  EXPECT_THROW((void)ShardSummary::load_file(path), FleetError);
}

TEST(ShardSummaryFile, RejectsDuplicateCells) {
  const PopulationSpec pop = tiny_population();
  ShardSummary s = sample_summary(pop);
  s.cells.emplace(2, s.cells.at(1));
  const std::string path = temp_dir("fsum-duplicate") + "/s.fsum";
  s.save_file(path);
  // The cell records follow the 64 B header, five u64 fields and the cell
  // count; renumber the second record (cell 2) as a second cell 1.
  std::ostringstream first;
  common::StateWriter w(first);
  s.cells.at(1).save_state(w);
  const std::size_t second_index = 64 + 6 * 8 + 8 + first.str().size();
  std::string bytes = testing_support::read_file(path);
  ASSERT_EQ(bytes[second_index], 2);
  bytes[second_index] = 1;
  testing_support::write_file(path, bytes);
  try {
    (void)ShardSummary::load_file(path);
    FAIL() << "accepted a duplicate cell";
  } catch (const FleetError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate cell 1"),
              std::string::npos)
        << e.what();
  }
}

// --- Runner + driver differentials -------------------------------------------

TEST(FleetDifferential, OneShardEqualsManyShardsEqualsManyProcesses) {
  const PopulationSpec pop = tiny_population();

  // Reference: single shard, run sequentially in this process.
  FleetOptions seq;
  seq.shards = 1;
  seq.workers = 0;
  seq.out_dir = temp_dir("fleet-seq");
  FleetDriver seq_driver(seq);
  const std::string reference = report_csv(seq_driver.run(pop));
  EXPECT_NE(reference.find("performance"), std::string::npos);
  EXPECT_NE(reference.find("ondemand"), std::string::npos);

  // Same population, 3 shards run sequentially.
  FleetOptions sharded;
  sharded.shards = 3;
  sharded.workers = 0;
  sharded.out_dir = temp_dir("fleet-sharded");
  FleetDriver sharded_driver(sharded);
  EXPECT_EQ(report_csv(sharded_driver.run(pop)), reference);

  // Same population, 4 shards across 2 forked worker processes.
  FleetOptions forked;
  forked.shards = 4;
  forked.workers = 2;
  forked.out_dir = temp_dir("fleet-forked");
  FleetDriver forked_driver(forked);
  EXPECT_EQ(report_csv(forked_driver.run(pop)), reference);
  EXPECT_EQ(forked_driver.launches(), 4u);
  EXPECT_EQ(forked_driver.retries_used(), 0u);
}

TEST(FleetDifferential, CompletedShardsAreNotRelaunched) {
  const PopulationSpec pop = tiny_population();
  FleetOptions options;
  options.shards = 2;
  options.workers = 2;
  options.out_dir = temp_dir("fleet-rerun");
  FleetDriver first(options);
  const std::string reference = report_csv(first.run(pop));
  EXPECT_EQ(first.launches(), 2u);

  // Second run over the same out_dir: every summary is already sealed and
  // fingerprint-matched, so the driver goes straight to the merge.
  FleetDriver second(options);
  EXPECT_EQ(report_csv(second.run(pop)), reference);
  EXPECT_EQ(second.launches(), 0u);
}

TEST(FleetFailureInjection, RetryResumesFromCheckpointBitIdentically) {
  const PopulationSpec pop = tiny_population();

  FleetOptions clean;
  clean.shards = 2;
  clean.workers = 0;
  clean.out_dir = temp_dir("fleet-clean");
  FleetDriver clean_driver(clean);
  const std::string reference = report_csv(clean_driver.run(pop));

  // Every shard's first attempt is killed (std::_Exit, no unwinding) after
  // one device; checkpoints are written per device, so the relaunch resumes
  // mid-shard instead of starting over.
  FleetOptions faulty;
  faulty.shards = 2;
  faulty.workers = 2;
  faulty.out_dir = temp_dir("fleet-faulty");
  faulty.checkpoint_every = 1;
  faulty.fail_first_attempt_after = 1;
  FleetDriver faulty_driver(faulty);
  const std::string report = report_csv(faulty_driver.run(pop));
  EXPECT_EQ(report, reference);
  EXPECT_EQ(faulty_driver.retries_used(), 2u);
  EXPECT_EQ(faulty_driver.launches(), 4u);

  // The sealed summaries prove the retries resumed: their writing session
  // began past the shard start.
  for (std::size_t i = 0; i < 2; ++i) {
    const ShardSummary s =
        ShardSummary::load_file(shard_summary_path(faulty.out_dir, i));
    EXPECT_TRUE(s.complete());
    EXPECT_GT(s.started_at_device, s.shard.device_begin)
        << "shard " << i << " restarted from scratch instead of resuming";
  }
}

/// 12 devices in 3 shards of 4: shard 0 runs only ondemand, shard 1 straddles
/// the ondemand/rtm cell boundary, shard 2 runs only rtm, so the rtm cell's
/// fleet policy folds accumulators from two shards.
PopulationSpec rtm_population() {
  PopulationSpec pop = tiny_population();
  pop.governors = {"ondemand", "rtm"};
  pop.devices_per_cell = 6;
  pop.frames = 30;
  return pop;
}

/// Every `.qpol` under \p dir, keyed by its path relative to \p dir.
std::map<std::string, std::string> qpol_files(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.path().extension() != ".qpol") continue;
    std::ifstream in(e.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[std::filesystem::relative(e.path(), dir).string()] = bytes.str();
  }
  return files;
}

/// (checkpoint_every, fail_first_attempt_after): the checkpoint cadence and
/// the device count after which every shard's first attempt is killed.
class FleetPolicyBytes
    : public testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(FleetPolicyBytes, SurviveCheckpointCadenceAndRetry) {
  const auto [every, kill_after] = GetParam();
  const PopulationSpec pop = rtm_population();
  constexpr std::size_t kShards = 3;

  FleetOptions clean;
  clean.shards = kShards;
  clean.workers = 0;
  clean.out_dir = temp_dir("policy-bytes-ref");
  const std::string reference = report_csv(FleetDriver(clean).run(pop));

  FleetOptions options;
  options.shards = kShards;
  options.workers = 2;
  options.out_dir = temp_dir("policy-bytes-" + std::to_string(every) + "-" +
                             std::to_string(kill_after));
  options.checkpoint_every = every;
  options.fail_first_attempt_after = kill_after;
  FleetDriver driver(options);
  EXPECT_EQ(report_csv(driver.run(pop)), reference);
  EXPECT_EQ(driver.retries_used(), kill_after > 0 ? kShards : 0u);

  const bool resumes = kill_after > 0 && every > 0 && kill_after >= every;
  bool saw_rtm = false;
  for (std::size_t i = 0; i < kShards; ++i) {
    const ShardSummary want =
        ShardSummary::load_file(shard_summary_path(clean.out_dir, i));
    const ShardSummary got =
        ShardSummary::load_file(shard_summary_path(options.out_dir, i));
    EXPECT_EQ(got.started_at_device > got.shard.device_begin, resumes)
        << "shard " << i;
    ASSERT_EQ(got.policies.size(), want.policies.size()) << "shard " << i;
    for (const auto& [cell, policy] : want.policies) {
      ASSERT_EQ(got.policies.count(cell), 1u) << "shard " << i;
      const CellPolicy& p = got.policies.at(cell);
      EXPECT_EQ(p.mergeable, policy.mergeable);
      EXPECT_EQ(p.accumulator, policy.accumulator)
          << "shard " << i << " cell " << cell;
      EXPECT_EQ(p.epochs, policy.epochs);
      EXPECT_EQ(p.source_fingerprint, policy.source_fingerprint);
      saw_rtm = saw_rtm || policy.mergeable;
    }
  }
  EXPECT_TRUE(saw_rtm) << "no shard folded a mergeable (rtm) policy";

  const auto want_qpol = qpol_files(clean.out_dir + "/qlib");
  EXPECT_EQ(want_qpol.size(), 1u);  // the rtm cell; ondemand has no merger
  EXPECT_EQ(qpol_files(options.out_dir + "/qlib"), want_qpol);
}

INSTANTIATE_TEST_SUITE_P(
    CadenceByKill, FleetPolicyBytes,
    testing::Combine(testing::Values(std::size_t{0}, std::size_t{1},
                                     std::size_t{3}),
                     testing::Values(std::size_t{0}, std::size_t{1},
                                     std::size_t{3})),
    [](const testing::TestParamInfo<FleetPolicyBytes::ParamType>& info) {
      return "every" + std::to_string(std::get<0>(info.param)) + "_kill" +
             std::to_string(std::get<1>(info.param));
    });

TEST(FleetFailureInjection, RetryBudgetExhaustionThrows) {
  const PopulationSpec pop = tiny_population();
  FleetOptions options;
  options.shards = 1;
  options.workers = 1;
  options.retries = 0;  // a single failure is fatal
  options.out_dir = temp_dir("fleet-budget");
  options.fail_first_attempt_after = 1;
  FleetDriver driver(options);
  EXPECT_THROW((void)driver.run(pop), FleetError);
}

TEST(FleetMerge, RejectsSummariesOfADifferentPopulation) {
  const PopulationSpec pop = tiny_population();
  const std::string dir = temp_dir("fleet-foreign");
  FleetOptions options;
  options.shards = 1;
  options.workers = 0;
  options.out_dir = dir;
  FleetDriver driver(options);
  (void)driver.run(pop);

  PopulationSpec other = pop;
  other.base_seed += 1;
  const ShardPlan plan(other.device_count(), 1);
  try {
    (void)FleetDriver::merge_shards(other, plan, dir);
    FAIL() << "expected FleetError";
  } catch (const FleetError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
}

TEST(FleetMerge, RejectsIncompleteCoverage) {
  const PopulationSpec pop = tiny_population();
  const std::string dir = temp_dir("fleet-missing");
  // Only shard 0 of 2 exists.
  const ShardPlan plan(pop.device_count(), 2);
  ShardRunnerOptions opts;
  opts.summary_path = shard_summary_path(dir, 0);
  (void)run_shard(pop, plan.shard(0), opts);
  EXPECT_THROW((void)FleetDriver::merge_shards(pop, plan, dir), FleetError);
}

TEST(FleetRunner, CorruptCheckpointFallsBackToAFreshStart) {
  const PopulationSpec pop = tiny_population();
  const std::string dir = temp_dir("fleet-badckpt");
  const ShardPlan plan(pop.device_count(), 2);
  ShardRunnerOptions opts;
  opts.summary_path = shard_summary_path(dir, 0);
  opts.checkpoint_path = shard_checkpoint_path(dir, 0);
  {
    std::ofstream garbage(opts.checkpoint_path, std::ios::binary);
    garbage << "not a shard checkpoint";
  }
  const ShardSummary s = run_shard(pop, plan.shard(0), opts);
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.started_at_device, s.shard.device_begin);
}

}  // namespace
}  // namespace prime::fleet
