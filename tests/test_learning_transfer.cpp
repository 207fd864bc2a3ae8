/// \file test_learning_transfer.cpp
/// \brief Learning transfer across applications (the Shafik et al. TCAD'16
///        lineage [12] the paper's framework is built on).
///
/// The RTM's Q-table is application-agnostic: states are (workload level,
/// slack level), so knowledge learned on one application seeds another. The
/// engine supports this via RunOptions::reset_governor = false; these tests
/// verify that a warm-started governor (a) skips the exploration phase and
/// (b) misses fewer deadlines early on the second application than a
/// cold-started one. The QTable's binary state additionally allows transfer
/// across processes.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "common/serial.hpp"
#include "gov/merge.hpp"
#include "qlib/policy.hpp"
#include "rtm/manycore.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"

namespace prime::sim {
namespace {

wl::Application make_app(const char* workload, std::uint64_t seed,
                         const hw::Platform& platform) {
  ExperimentSpec spec;
  spec.workload = workload;
  spec.fps = 25.0;
  spec.frames = 600;
  spec.seed = seed;
  return make_application(spec, platform);
}

std::size_t early_misses(const std::vector<EpochRecord>& records,
                         std::size_t window = 150) {
  std::size_t misses = 0;
  for (std::size_t i = 0; i < records.size() && i < window; ++i) {
    if (!records[i].deadline_met) ++misses;
  }
  return misses;
}

TEST(LearningTransfer, WarmStartSkipsExploration) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application first = make_app("mpeg4", 1, *platform);
  const wl::Application second = make_app("h264", 2, *platform);

  rtm::ManycoreRtmGovernor governor;
  (void)run_simulation(*platform, first, governor);
  const std::size_t explorations_after_first = governor.exploration_count();
  EXPECT_GT(explorations_after_first, 10u);

  RunOptions keep;
  keep.reset_governor = false;  // transfer the learned table and schedule
  (void)run_simulation(*platform, second, governor, keep);
  // Epsilon stayed at its floor: almost no new exploration on app two.
  EXPECT_LT(governor.exploration_count() - explorations_after_first, 10u);
}

TEST(LearningTransfer, WarmStartMissesFewerEarlyDeadlines) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application first = make_app("mpeg4", 1, *platform);
  const wl::Application second = make_app("h264", 2, *platform);

  // Cold: fresh governor directly on the second application.
  rtm::ManycoreRtmGovernor cold;
  TraceSink cold_trace;
  RunOptions cold_opt;
  cold_opt.sinks = {&cold_trace};
  (void)run_simulation(*platform, second, cold, cold_opt);

  // Warm: learn on the first application, then move to the second.
  rtm::ManycoreRtmGovernor warm;
  (void)run_simulation(*platform, first, warm);
  TraceSink warm_trace;
  RunOptions keep;
  keep.reset_governor = false;
  keep.sinks = {&warm_trace};
  (void)run_simulation(*platform, second, warm, keep);

  EXPECT_LT(early_misses(warm_trace.records()),
            early_misses(cold_trace.records()));
}

TEST(LearningTransfer, QlibWarmStartBeatsColdForEveryMergeableGovernor) {
  // The policy-library generalisation of the warm-start tests above: for
  // every registered governor with mergeable learning state, train on one
  // application, publish a leaf `.qpol`, warm-start a *fresh instance* from
  // the file on a second application, and compare early deadline misses
  // against a cold start. Warm must never be worse, and must strictly beat
  // cold for at least one governor (in practice all Q-learners do).
  const std::string dir = testing::TempDir() + "learning-transfer-qlib/";
  std::filesystem::create_directories(dir);
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application first = make_app("mpeg4", 1, *platform);
  const wl::Application second = make_app("h264", 2, *platform);

  std::size_t mergeable = 0;
  std::size_t strictly_better = 0;
  for (const std::string& name : governor_names()) {
    {
      const auto probe = make_governor(name, 7);
      if (probe->make_state_merger() == nullptr) continue;  // not a learner
    }
    ++mergeable;

    // Cold: fresh governor directly on the second application.
    const auto cold = make_governor(name, 7);
    TraceSink cold_trace;
    RunOptions cold_opt;
    cold_opt.sinks = {&cold_trace};
    (void)run_simulation(*platform, second, *cold, cold_opt);

    // Warm: train on the first application, publish, warm-start from disk.
    const auto trained = make_governor(name, 7);
    const RunResult train_run = run_simulation(*platform, first, *trained);
    const qlib::PolicyEntry leaf = qlib::make_leaf_entry(
        *platform, *trained, "h264", 25.0, name, train_run.epoch_count);
    const std::string path = dir + name + ".qpol";
    leaf.save_file(path);

    const auto warm = make_governor(name, 7);
    TraceSink warm_trace;
    RunOptions warm_opt;
    warm_opt.sinks = {&warm_trace};
    warm_opt.warm_start_from = path;
    (void)run_simulation(*platform, second, *warm, warm_opt);

    const std::size_t cold_misses = early_misses(cold_trace.records());
    const std::size_t warm_misses = early_misses(warm_trace.records());
    EXPECT_LE(warm_misses, cold_misses)
        << name << ": warm start missed more early deadlines than cold";
    if (warm_misses < cold_misses) ++strictly_better;
  }
  EXPECT_GE(mergeable, 4u);  // rtm family, shen-rl, mcdvfs at minimum
  EXPECT_GT(strictly_better, 0u);
}

TEST(LearningTransfer, QTablePersistsAcrossProcessesViaStateBytes) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app("mpeg4", 1, *platform);

  rtm::ManycoreRtmGovernor trained;
  (void)run_simulation(*platform, app, trained);
  ASSERT_NE(trained.q_table(), nullptr);
  std::ostringstream out(std::ios::binary);
  common::StateWriter w(out);
  trained.q_table()->save_state(w);

  // "New process": a fresh table restored from the serialised knowledge,
  // adopting its dimensions.
  std::istringstream in(out.str(), std::ios::binary);
  common::StateReader r(in);
  rtm::QTable restored(1, 1);
  restored.load_state(r);
  EXPECT_EQ(restored.values(), trained.q_table()->values());
  EXPECT_EQ(restored.greedy_policy(), trained.q_table()->greedy_policy());
  EXPECT_EQ(restored.total_updates(), trained.q_table()->total_updates());
}

}  // namespace
}  // namespace prime::sim
