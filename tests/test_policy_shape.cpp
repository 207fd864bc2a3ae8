/// \file test_policy_shape.cpp
/// \brief The one learned-state identity rule, qlib::PolicyShape, and the
///        grid of its four consumers.
///
/// Learned state is valid only for the governor that wrote it, on a board
/// with the same OPP count, core count and V-F shape fingerprint. The grid
/// skews each of those axes once against each consumer — `.ckpt` resume,
/// `.qpol` warm start, qlib::merge_entries and the fleet merge — and expects
/// that consumer's own error type with a message naming the axis.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <tuple>

#include "common/config.hpp"
#include "fleet/driver.hpp"
#include "fleet/population.hpp"
#include "fleet/summary.hpp"
#include "hw/platform.hpp"
#include "qlib/policy.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"

namespace prime::qlib {
namespace {

enum class Axis { kGovernor, kOppCount, kCoreCount, kFingerprint };
enum class Consumer { kResume, kWarmStart, kMergeEntries, kFleetMerge };

constexpr std::size_t kFrames = 60;

std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "policy-shape/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The default board with exactly one axis changed (none for the governor
/// axis, which changes the governor instead).
std::unique_ptr<hw::Platform> board(Axis axis) {
  common::Config cfg;
  switch (axis) {
    case Axis::kOppCount: cfg.set("hw.opps", "10"); break;
    case Axis::kCoreCount: cfg.set("hw.cores", "8"); break;
    // Still 19 OPPs on 4 cores, but a different top frequency.
    case Axis::kFingerprint: cfg.set("hw.fmax_mhz", "1900"); break;
    case Axis::kGovernor: break;
  }
  return hw::Platform::from_config(cfg);
}

std::unique_ptr<hw::Platform> base_board() {
  return hw::Platform::from_config(common::Config{});
}

std::string governor_spec(Axis axis) {
  return axis == Axis::kGovernor ? "shen-rl" : "rtm";
}

std::string axis_message(Axis axis) {
  switch (axis) {
    case Axis::kGovernor: return "governor mismatch";
    case Axis::kOppCount: return "OPP count mismatch";
    case Axis::kCoreCount: return "core count mismatch";
    case Axis::kFingerprint: return "platform shape fingerprint mismatch";
  }
  return "";
}

wl::Application make_app(const hw::Platform& platform) {
  sim::ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = 30.0;
  spec.frames = kFrames;
  spec.stream = true;
  return sim::make_application(spec, platform);
}

/// Run \p spec on \p platform for kFrames and return its leaf entry;
/// \p checkpoint non-empty also writes the run-end checkpoint there.
PolicyEntry train(hw::Platform& platform, const std::string& spec,
                  const std::string& checkpoint = "") {
  const wl::Application app = make_app(platform);
  const auto governor = sim::make_governor(spec, 5);
  sim::RunOptions options;
  options.max_frames = kFrames;
  std::unique_ptr<sim::CheckpointSink> sink;
  if (!checkpoint.empty()) {
    sink = std::make_unique<sim::CheckpointSink>(checkpoint);
    options.sinks = {sink.get()};
  }
  const sim::RunResult run =
      sim::run_simulation(platform, app, *governor, options);
  return make_leaf_entry(platform, *governor, "h264", 30.0, spec,
                         run.epoch_count);
}

/// What an rtm run on the default board leaves behind, built once.
struct Trained {
  std::string checkpoint;  ///< Its `.ckpt`.
  PolicyEntry leaf;        ///< Its leaf entry ...
  std::string leaf_path;   ///< ... saved as a `.qpol`.
  fleet::PopulationSpec pop;
  std::string fleet_dir;   ///< A two-shard rtm population's summaries.
};

const Trained& trained() {
  static const Trained t = [] {
    Trained out;
    const std::string dir = temp_dir("trained");
    out.checkpoint = dir + "/run.ckpt";
    auto platform = base_board();
    out.leaf = train(*platform, "rtm", out.checkpoint);
    out.leaf_path = dir + "/leaf.qpol";
    out.leaf.save_file(out.leaf_path);

    out.pop.governors = {"rtm"};
    out.pop.workloads = {"flat(mean=2e8,cv=0.1)"};
    out.pop.fps = {30.0};
    out.pop.devices_per_cell = 2;
    out.pop.frames = 20;
    out.pop.energy_bins = 16;
    out.pop.miss_bins = 8;
    out.pop.perf_bins = 8;
    fleet::FleetOptions options;
    options.shards = 2;
    options.workers = 0;
    options.out_dir = dir + "/fleet";
    fleet::FleetDriver driver(options);
    (void)driver.run(out.pop);
    out.fleet_dir = options.out_dir;
    return out;
  }();
  return t;
}

/// Call \p fn and return the message of the \p Error it throws; anything
/// else fails the test.
template <typename Error>
std::string message_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "wrong error type: " << e.what();
    return "";
  }
  ADD_FAILURE() << "nothing thrown";
  return "";
}

TEST(PolicyShape, OfReadsTheBoardAndTheGovernor) {
  const auto platform = hw::Platform::odroid_xu3_a15();
  const auto governor = sim::make_governor("rtm");
  const PolicyShape shape = PolicyShape::of(*platform, *governor);
  EXPECT_EQ(shape.governor_name, governor->name());
  EXPECT_EQ(shape.opp_count, platform->opp_table().size());
  EXPECT_EQ(shape.core_count, platform->total_cores());
  EXPECT_EQ(shape.platform_fingerprint, platform->shape_fingerprint());
  EXPECT_EQ(shape.mismatch(shape), "");
  EXPECT_EQ(trained().leaf.shape().mismatch(shape), "");
}

TEST(PolicyShape, EachSkewedBoardDiffersFirstOnItsOwnAxis) {
  const auto base = base_board();
  const PolicyShape reference =
      PolicyShape::of(*base, *sim::make_governor("rtm"));
  for (const Axis axis : {Axis::kGovernor, Axis::kOppCount, Axis::kCoreCount,
                          Axis::kFingerprint}) {
    const PolicyShape skewed = PolicyShape::of(
        *board(axis), *sim::make_governor(governor_spec(axis)));
    const std::string message = reference.mismatch(skewed);
    EXPECT_EQ(message.rfind(axis_message(axis), 0), 0u) << message;
    EXPECT_EQ(skewed.mismatch(reference).rfind(axis_message(axis), 0), 0u);
  }
}

class ShapeMismatchGrid
    : public testing::TestWithParam<std::tuple<Axis, Consumer>> {};

TEST_P(ShapeMismatchGrid, ThrowsTheConsumersErrorNamingTheAxis) {
  const auto [axis, consumer] = GetParam();
  const Trained& t = trained();
  const auto platform = board(axis);
  const std::string spec = governor_spec(axis);
  const auto governor = sim::make_governor(spec, 5);
  const wl::Application app = make_app(*base_board());
  sim::RunOptions options;
  options.max_frames = 2 * kFrames;

  const auto run = [&] {
    (void)sim::run_simulation(*platform, app, *governor, options);
  };

  std::string message;
  switch (consumer) {
    case Consumer::kResume:
      options.resume_from = t.checkpoint;
      message = message_of<sim::CheckpointError>(run);
      break;
    case Consumer::kWarmStart:
      options.warm_start_from = t.leaf_path;
      message = message_of<QlibError>(run);
      break;
    case Consumer::kMergeEntries: {
      const PolicyEntry skewed = train(*platform, spec);
      message = message_of<QlibError>(
          [&] { (void)merge_entries({t.leaf, skewed}); });
      break;
    }
    case Consumer::kFleetMerge: {
      // Shard 1 reports the skewed identity for the one cell.
      const std::string dir = temp_dir(
          "fleet-" + std::to_string(static_cast<int>(axis)));
      std::filesystem::copy(t.fleet_dir, dir,
                            std::filesystem::copy_options::recursive);
      const std::string path = fleet::shard_summary_path(dir, 1);
      fleet::ShardSummary summary = fleet::ShardSummary::load_file(path);
      summary.policies.at(0).shape = PolicyShape::of(*platform, *governor);
      summary.save_file(path);
      const fleet::ShardPlan plan(t.pop.device_count(), 2);
      message = message_of<fleet::FleetError>(
          [&] { (void)fleet::FleetDriver::merge_shards(t.pop, plan, dir); });
      break;
    }
  }
  EXPECT_NE(message.find(axis_message(axis)), std::string::npos) << message;
}

std::string grid_name(
    const testing::TestParamInfo<ShapeMismatchGrid::ParamType>& info) {
  static const char* const kAxes[] = {"governor", "opps", "cores",
                                      "fingerprint"};
  static const char* const kConsumers[] = {"resume", "warm_start",
                                           "merge_entries", "fleet_merge"};
  return std::string(kAxes[static_cast<int>(std::get<0>(info.param))]) + "_" +
         kConsumers[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AxisByConsumer, ShapeMismatchGrid,
    testing::Combine(testing::Values(Axis::kGovernor, Axis::kOppCount,
                                     Axis::kCoreCount, Axis::kFingerprint),
                     testing::Values(Consumer::kResume, Consumer::kWarmStart,
                                     Consumer::kMergeEntries,
                                     Consumer::kFleetMerge)),
    grid_name);

}  // namespace
}  // namespace prime::qlib
