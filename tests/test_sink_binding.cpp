/// \file test_sink_binding.cpp
/// \brief How run_simulation hands its live state to the sinks that need it:
///        checkpoint snapshots, qlib policy publication, and the dashboard's
///        per-domain residency and `/window` trace. Every such sink binds
///        wherever it sits in the sink list and however deeply it is wrapped
///        in sample(...).
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/http.hpp"
#include "hw/platform.hpp"
#include "qlib/policy.hpp"
#include "qlib/sink.hpp"
#include "sim/bintrace.hpp"
#include "sim/checkpoint.hpp"
#include "sim/dashboard.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"
#include "wl/fft.hpp"

namespace prime::sim {
namespace {

constexpr std::size_t kFrames = 40;
constexpr std::size_t kSampleEvery = 2;

wl::Application make_app() {
  wl::WorkloadTrace trace =
      wl::FftTraceGenerator::paper_fft().generate(kFrames, 1);
  trace = trace.scaled_to_mean(0.45 * 4.0 * 2.0e9 / 30.0);
  return wl::Application("fft", std::move(trace), 30.0);
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "sink-binding-" + name;
}

common::HttpResult get(const DashboardSink& dash, const std::string& target) {
  return common::http_get("127.0.0.1", dash.bound_port(), target);
}

enum class Bound { kCheckpoint, kQlib, kDashboard };
enum class Wrap { kBare, kSample, kSampleOfSample };
enum class Position { kFirst, kLast };

using GridParam = std::tuple<Bound, Wrap, Position>;

std::string grid_name(const testing::TestParamInfo<GridParam>& info) {
  static const char* const bound[] = {"Checkpoint", "Qlib", "DashboardBt"};
  static const char* const wrap[] = {"Bare", "Sample", "SampleOfSample"};
  static const char* const pos[] = {"First", "Last"};
  return std::string(bound[static_cast<int>(std::get<0>(info.param))]) +
         wrap[static_cast<int>(std::get<1>(info.param))] +
         pos[static_cast<int>(std::get<2>(info.param))];
}

/// Builds sinks under one wrapping and keeps them alive for the test.
struct Wrapper {
  Wrap wrap;
  std::vector<std::unique_ptr<TelemetrySink>> owned;

  /// \p sink wrapped as the grid point says; returns the attachable sink.
  TelemetrySink* add(std::unique_ptr<TelemetrySink> sink) {
    if (wrap != Wrap::kBare) {
      sink = std::make_unique<SampleSink>(kSampleEvery, std::move(sink));
    }
    if (wrap == Wrap::kSampleOfSample) {
      sink = std::make_unique<SampleSink>(kSampleEvery, std::move(sink));
    }
    owned.push_back(std::move(sink));
    return owned.back().get();
  }

  /// Epochs the innermost sink sees out of a kFrames run: sample forwards
  /// the first epoch and every n-th after it.
  [[nodiscard]] std::size_t forwarded() const {
    std::size_t n = kFrames;
    if (wrap != Wrap::kBare) n = (n + kSampleEvery - 1) / kSampleEvery;
    if (wrap == Wrap::kSampleOfSample) {
      n = (n + kSampleEvery - 1) / kSampleEvery;
    }
    return n;
  }
};

class SinkBindingGrid : public testing::TestWithParam<GridParam> {};

TEST_P(SinkBindingGrid, BindsWhereverTheSinkSitsAndHoweverItIsWrapped) {
  const auto [bound, wrap, position] = GetParam();
  const std::string tag = grid_name({GetParam(), 0});
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app();
  const auto governor = make_governor("rtm", 7);

  TraceSink trace;
  CsvSink csv(temp_path(tag + ".csv"));
  RunOptions opt;
  // \p at_position goes first or last among the trace and csv sinks as the
  // grid point says; \p other (if any) goes to the opposite end.
  const auto attach = [&](TelemetrySink* at_position, TelemetrySink* other) {
    opt.sinks = {&trace, &csv};
    if (position == Position::kLast) std::swap(at_position, other);
    if (at_position != nullptr) {
      opt.sinks.insert(opt.sinks.begin(), at_position);
    }
    if (other != nullptr) opt.sinks.push_back(other);
  };

  Wrapper w{wrap, {}};
  const std::string ckpt = temp_path(tag + ".ckpt");
  const std::string dir = temp_path(tag + "-qlib");
  const std::string bt = temp_path(tag + ".bt");
  CheckpointSink* ck = nullptr;
  qlib::QlibSink* ql = nullptr;
  DashboardSink* dash = nullptr;
  TelemetrySink* dash_attached = nullptr;
  switch (bound) {
    case Bound::kCheckpoint: {
      std::filesystem::remove(ckpt);
      auto owned = std::make_unique<CheckpointSink>(ckpt, /*every=*/5);
      ck = owned.get();
      attach(w.add(std::move(owned)), nullptr);
      break;
    }
    case Bound::kQlib: {
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      auto owned = std::make_unique<qlib::QlibSink>(dir);
      owned->set_governor_spec("rtm");
      ql = owned.get();
      attach(w.add(std::move(owned)), nullptr);
      break;
    }
    case Bound::kDashboard: {
      // The dashboard sits at the grid position and the bintrace sink at
      // the other end, so half the grid attaches the dashboard first.
      auto owned = std::make_unique<DashboardSink>(0, 1);
      dash = owned.get();
      dash_attached = w.add(std::move(owned));
      attach(dash_attached, w.add(std::make_unique<BinTraceSink>(bt)));
      break;
    }
  }
  const RunResult run = run_simulation(*platform, app, *governor, opt);
  ASSERT_EQ(run.epoch_count, kFrames);
  EXPECT_EQ(trace.records().size(), kFrames);
  EXPECT_EQ(csv.rows_written(), kFrames);

  if (ck != nullptr) {
    EXPECT_EQ(ck->snapshots_written(), w.forwarded() / 5 + 1);
    const Checkpoint saved = Checkpoint::load_file(ckpt);
    EXPECT_EQ(saved.frame_position, kFrames);
    EXPECT_EQ(saved.governor, run.governor);
  }
  if (ql != nullptr) {
    EXPECT_EQ(ql->published(), 1u);
    ASSERT_TRUE(std::filesystem::exists(ql->last_path()));
    const qlib::PolicyEntry entry =
        qlib::PolicyEntry::load_file(ql->last_path());
    EXPECT_EQ(entry.provenance.epochs_trained, kFrames);
  }
  if (dash != nullptr) {
    const common::HttpResult window = get(*dash, "/window?from=0&count=2");
    ASSERT_EQ(window.status, 200) << window.body;
    EXPECT_NE(window.body.find("\"record_count\":" +
                               std::to_string(w.forwarded())),
              std::string::npos)
        << window.body;
    BinTraceReader reader(bt);
    EXPECT_NE(window.body.find(epoch_record_json(reader.at(1))),
              std::string::npos);

    // A following run with no bintrace sink leaves /window nothing to
    // serve: the previous run's path does not carry over.
    attach(dash_attached, nullptr);
    (void)run_simulation(*platform, app, *governor, opt);
    EXPECT_EQ(get(*dash, "/window").status, 404);

    // A bt= spec path wins over the bintrace sink riding in the run.
    const std::string other = temp_path(tag + "-other.bt");
    {
      BinTraceSink writer(other);
      RunOptions three;
      three.max_frames = 3;
      three.sinks = {&writer};
      (void)run_simulation(*platform, app, *governor, three);
    }
    Wrapper w2{wrap, {}};
    auto owned = std::make_unique<DashboardSink>(0, 1, 256, other);
    const DashboardSink& pinned = *owned;
    attach(w2.add(std::move(owned)),
           w2.add(std::make_unique<BinTraceSink>(bt)));
    (void)run_simulation(*platform, app, *governor, opt);
    const common::HttpResult served = get(pinned, "/window");
    ASSERT_EQ(served.status, 200) << served.body;
    EXPECT_NE(served.body.find("\"record_count\":3"), std::string::npos)
        << served.body;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sinks, SinkBindingGrid,
    testing::Combine(testing::Values(Bound::kCheckpoint, Bound::kQlib,
                                     Bound::kDashboard),
                     testing::Values(Wrap::kBare, Wrap::kSample,
                                     Wrap::kSampleOfSample),
                     testing::Values(Position::kFirst, Position::kLast)),
    grid_name);

// --- No binding outlives its run ---------------------------------------------
//
// A 2-domain board cannot checkpoint, so an attached checkpoint sink rejects
// the run at bind time. The sinks bound before it must be unbound all the
// same: they hold pointers into the rejected run.

std::unique_ptr<hw::Platform> two_domain_board() {
  common::Config cfg;
  cfg.set_int("hw.clusters", 2);
  return hw::Platform::from_config(cfg);
}

TEST(SinkBinding, RejectedRunLeavesTheQlibSinkUnbound) {
  auto board = two_domain_board();
  const auto governor = make_governor("rtm", 7);
  qlib::QlibSink ql(temp_path("leak-qlib"));
  CheckpointSink ck(temp_path("leak-qlib.ckpt"));
  RunOptions opt;
  opt.sinks = {&ql, &ck};
  EXPECT_THROW((void)run_simulation(*board, make_app(), *governor, opt),
               std::invalid_argument);
  EXPECT_THROW(ql.on_run_begin(RunContext{}), std::logic_error);
}

TEST(SinkBinding, RejectedRunLeavesTheDashboardOffTheDeadBoard) {
  DashboardSink dash(0, 1);
  const auto governor = make_governor("rtm", 7);
  {
    auto board = two_domain_board();
    CheckpointSink ck(temp_path("leak-dash.ckpt"));
    RunOptions opt;
    opt.sinks = {&dash, &ck};
    EXPECT_THROW((void)run_simulation(*board, make_app(), *governor, opt),
                 std::invalid_argument);
  }  // the board is destroyed before the dashboard is used again

  // Standalone use: residency falls back to the record's own OPP, one row.
  dash.on_run_begin(RunContext{});
  EpochRecord record;
  record.opp_index = 2;
  dash.on_epoch(record, *governor);
  const std::string snapshot = dash.snapshot_json();
  EXPECT_NE(snapshot.find("\"opp_residency\":[[0,0,1]]"), std::string::npos)
      << snapshot;
}

}  // namespace
}  // namespace prime::sim
