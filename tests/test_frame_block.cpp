/// \file test_frame_block.cpp
/// \brief The batched hot path's equivalence contracts: FrameSource::next_block
///        yields exactly what repeated next() yields, Application::fill_block
///        reproduces core_work()/deadline_at() row for row, and — the headline
///        differential — the engine produces results, records and `.bt`
///        bytes bit-identical to the per-frame reference loop
///        (tests/support/reference_engine.hpp) at every block size for every
///        registered governor, including a checkpoint cut mid-block.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/bintrace.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"
#include "support/reference_engine.hpp"
#include "wl/application.hpp"
#include "wl/frame_block.hpp"
#include "wl/frame_source.hpp"
#include "wl/trace.hpp"
#include "support/kernel_calls.hpp"

namespace prime::sim {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

wl::Application make_streaming_app(const hw::Platform& platform,
                                   std::size_t frames) {
  ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = 30.0;
  spec.frames = frames;
  spec.stream = true;
  return make_application(spec, platform);
}

void expect_results_bitequal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.epoch_count, b.epoch_count);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_energy),
            std::bit_cast<std::uint64_t>(b.total_energy));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.measured_energy),
            std::bit_cast<std::uint64_t>(b.measured_energy));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_time),
            std::bit_cast<std::uint64_t>(b.total_time));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.performance_sum),
            std::bit_cast<std::uint64_t>(b.performance_sum));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.power_sum),
            std::bit_cast<std::uint64_t>(b.power_sum));
}

void expect_records_bitequal(const EpochRecord& a, const EpochRecord& b) {
  unsigned char ea[kBinTraceRecordSize];
  unsigned char eb[kBinTraceRecordSize];
  encode_record(a, ea);
  encode_record(b, eb);
  EXPECT_EQ(std::memcmp(ea, eb, sizeof(ea)), 0) << "epoch " << a.epoch;
}

// --- FrameSource::next_block ------------------------------------------------

wl::WorkloadTrace small_trace() {
  std::vector<wl::FrameDemand> frames;
  for (std::size_t i = 0; i < 23; ++i) {
    frames.push_back(wl::FrameDemand{1000 + 37 * i, wl::FrameKind::kGeneric});
  }
  return wl::WorkloadTrace("t", std::move(frames));
}

TEST(FrameSourceBlock, TraceSourceBlockMatchesRepeatedNext) {
  // Pull the same bounded trace frame by frame and in ragged batches: the
  // sequences must match element for element, and both must exhaust at the
  // trace end with the same position.
  wl::TraceFrameSource scalar(small_trace());
  wl::TraceFrameSource batched(small_trace());

  std::vector<wl::FrameDemand> via_next;
  while (auto f = scalar.next()) via_next.push_back(*f);

  std::vector<wl::FrameDemand> via_block;
  std::vector<wl::FrameDemand> buf(7);
  for (;;) {
    const std::size_t got = batched.next_block(buf.data(), buf.size());
    via_block.insert(via_block.end(), buf.begin(),
                     buf.begin() + static_cast<std::ptrdiff_t>(got));
    if (got < buf.size()) break;
  }

  ASSERT_EQ(via_block.size(), via_next.size());
  for (std::size_t i = 0; i < via_next.size(); ++i) {
    EXPECT_EQ(via_block[i].cycles, via_next[i].cycles) << "frame " << i;
    EXPECT_EQ(via_block[i].kind, via_next[i].kind) << "frame " << i;
  }
  EXPECT_EQ(batched.position(), scalar.position());
  EXPECT_EQ(batched.next_block(buf.data(), buf.size()), 0u);
}

TEST(FrameSourceBlock, ScaledSourceBlockMatchesRepeatedNext) {
  const auto make = [] {
    return std::make_unique<wl::TraceFrameSource>(small_trace());
  };
  wl::ScaledFrameSource scalar(make(), 1.6180339887);
  wl::ScaledFrameSource batched(make(), 1.6180339887);

  std::vector<wl::FrameDemand> via_next;
  while (auto f = scalar.next()) via_next.push_back(*f);

  std::vector<wl::FrameDemand> buf(5);
  std::size_t i = 0;
  for (;;) {
    const std::size_t got = batched.next_block(buf.data(), buf.size());
    for (std::size_t k = 0; k < got; ++k, ++i) {
      ASSERT_LT(i, via_next.size());
      EXPECT_EQ(buf[k].cycles, via_next[i].cycles) << "frame " << i;
    }
    if (got < buf.size()) break;
  }
  EXPECT_EQ(i, via_next.size());
}

TEST(FrameSourceBlock, GeneratorStreamBlockMatchesRepeatedNext) {
  // Generator streams have no block override (the default loops next()), but
  // the contract still holds across the virtual dispatch: identical draws,
  // identical positions.
  const auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*platform, 100);
  const wl::Application scalar_app(app);  // private replay cursors
  std::vector<common::Cycles> scalar_demand;
  for (std::size_t i = 0; i < 100; ++i) {
    scalar_demand.push_back(scalar_app.frame_cycles(i));
  }
  const wl::Application batched_app(app);
  wl::FrameBlock block;
  std::size_t i = 0;
  while (i < 100) {
    const std::size_t n = std::min<std::size_t>(9, 100 - i);
    batched_app.fill_block(i, n, 4, block);
    for (std::size_t b = 0; b < n; ++b, ++i) {
      EXPECT_EQ(block.raw[b].cycles, scalar_demand[i]) << "frame " << i;
      const common::Cycles row_sum = std::accumulate(
          block.row(b), block.row(b) + block.cores, common::Cycles{0});
      EXPECT_EQ(block.demand[b], row_sum) << "frame " << i;
    }
  }
}

// --- Application::fill_block ------------------------------------------------

TEST(FrameBlockFill, MatchesCoreWorkAndDeadlinesForTraceApps) {
  const auto platform = hw::Platform::odroid_xu3_a15();
  ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = 30.0;
  spec.frames = 60;
  const wl::Application app = make_application(spec, *platform);
  const std::size_t frames = app.frame_count();
  ASSERT_GT(frames, 0u);

  for (const std::size_t cores : {1u, 3u, 4u}) {
    SCOPED_TRACE(cores);
    wl::FrameBlock block;
    std::size_t i = 0;
    while (i < frames) {
      const std::size_t n = std::min<std::size_t>(11, frames - i);
      app.fill_block(i, n, cores, block);
      EXPECT_EQ(block.start, i);
      EXPECT_EQ(block.count, n);
      EXPECT_EQ(block.cores, cores);
      for (std::size_t b = 0; b < n; ++b) {
        const std::size_t frame = i + b;
        const std::vector<common::Cycles> expect = testing_support::core_work(app, frame, cores);
        ASSERT_EQ(expect.size(), cores);
        for (std::size_t j = 0; j < cores; ++j) {
          EXPECT_EQ(block.row(b)[j], expect[j])
              << "frame " << frame << " core " << j;
        }
        EXPECT_EQ(block.demand[b],
                  std::accumulate(expect.begin(), expect.end(),
                                  common::Cycles{0}))
            << "frame " << frame;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(block.periods[b]),
                  std::bit_cast<std::uint64_t>(app.deadline_at(frame)))
            << "frame " << frame;
      }
      i += n;
    }
  }
}

TEST(FrameBlockFill, MatchesCoreWorkForStreamingApps) {
  // Streaming pulls are single-pass, so compare two private replay cursors of
  // the same application: one walked per frame, one walked in batches.
  const auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*platform, 80);
  constexpr std::size_t kFrames = 80;
  constexpr std::size_t kCores = 4;

  const wl::Application scalar(app);
  std::vector<std::vector<common::Cycles>> expect;
  for (std::size_t i = 0; i < kFrames; ++i) {
    expect.push_back(testing_support::core_work(scalar, i, kCores));
  }

  const wl::Application batched(app);
  wl::FrameBlock block;
  std::size_t i = 0;
  while (i < kFrames) {
    const std::size_t n = std::min<std::size_t>(13, kFrames - i);
    batched.fill_block(i, n, kCores, block);
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t j = 0; j < kCores; ++j) {
        EXPECT_EQ(block.row(b)[j], expect[i + b][j])
            << "frame " << i + b << " core " << j;
      }
    }
    i += n;
  }
}

// --- Engine differential: every block size, every governor ------------------

TEST(BatchedEngine, BitIdenticalAcrossBlockSizesForEveryRegisteredGovernor) {
  // Block size is an execution-strategy knob, never an observable one. For
  // every registered governor, the per-frame reference loop and batched runs
  // at block 1, an odd straggler-producing 7, and a bigger-than-the-run 256
  // must agree bit for bit — aggregates and every epoch record.
  constexpr std::size_t kFrames = 200;
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, kFrames);

  for (const std::string& name : governor_names()) {
    SCOPED_TRACE(name);

    const auto run_at = [&](std::size_t block_frames, TraceSink& trace) {
      const auto platform = hw::Platform::odroid_xu3_a15();
      const auto governor = make_governor(name);
      RunOptions options;
      options.max_frames = kFrames;
      options.block_frames = block_frames;
      options.sinks = {&trace};
      const wl::Application run_app(app);
      if (block_frames == 0) {
        return run_reference_simulation(*platform, run_app, *governor,
                                        options);
      }
      return run_simulation(*platform, run_app, *governor, options);
    };

    TraceSink scalar_trace;
    const RunResult scalar = run_at(0, scalar_trace);  // the reference
    ASSERT_EQ(scalar_trace.records().size(), kFrames);

    for (const std::size_t block : {std::size_t{1}, std::size_t{7},
                                    std::size_t{256}}) {
      SCOPED_TRACE(block);
      TraceSink trace;
      const RunResult batched = run_at(block, trace);
      expect_results_bitequal(scalar, batched);
      ASSERT_EQ(trace.records().size(), kFrames);
      for (std::size_t i = 0; i < kFrames; ++i) {
        expect_records_bitequal(scalar_trace.records()[i],
                                trace.records()[i]);
      }
    }
  }
}

TEST(BatchedEngine, BinTraceBytesAreIdenticalAcrossBlockSizes) {
  // The on-disk form of the same contract: the `.bt` a batched run writes is
  // byte-identical to the per-frame reference loop's.
  constexpr std::size_t kFrames = 150;
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, kFrames);

  const auto bt_at = [&](std::size_t block_frames, const std::string& path) {
    const auto platform = hw::Platform::odroid_xu3_a15();
    const auto governor = make_governor("rtm");
    const auto sink = make_sink("bintrace(path=" + path + ")");
    RunOptions options;
    options.max_frames = kFrames;
    options.block_frames = block_frames;
    options.sinks = {sink.get()};
    const wl::Application run_app(app);
    if (block_frames == 0) {
      (void)run_reference_simulation(*platform, run_app, *governor, options);
    } else {
      (void)run_simulation(*platform, run_app, *governor, options);
    }
    return read_bytes(path);
  };

  const std::string scalar = bt_at(0, temp_path("block-scalar.bt"));
  ASSERT_FALSE(scalar.empty());
  EXPECT_EQ(bt_at(1, temp_path("block-1.bt")), scalar);
  EXPECT_EQ(bt_at(64, temp_path("block-64.bt")), scalar);
}

TEST(BatchedEngine, ZeroBlockFramesIsRejected) {
  // There is no scalar engine path any more: 0 is not a block size.
  const auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*platform, 10);
  const auto governor = make_governor("ondemand");
  RunOptions options;
  options.max_frames = 10;
  options.block_frames = 0;
  EXPECT_THROW((void)run_simulation(*platform, app, *governor, options),
               std::invalid_argument);
}

TEST(BatchedEngine, KillMidBlockResumeIsBitIdentical) {
  // A checkpoint cut that lands mid-block (173 stops inside the third
  // 64-frame batch): the resumed run must still be bit-identical to the
  // uninterrupted reference — prefetched-but-unexecuted frames must leave no
  // trace in the snapshot.
  constexpr std::size_t kFull = 400;
  constexpr std::size_t kStop = 173;
  constexpr std::size_t kBlock = 64;
  static_assert(kStop % kBlock != 0, "the cut must land mid-block");
  const auto calibration = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_streaming_app(*calibration, kFull);

  for (const std::string& name : governor_names()) {
    SCOPED_TRACE(name);

    const auto platform_full = hw::Platform::odroid_xu3_a15();
    const auto governor_full = make_governor(name);
    TraceSink full_trace;
    RunOptions full_options;
    full_options.max_frames = kFull;
    full_options.block_frames = kBlock;
    full_options.sinks = {&full_trace};
    const wl::Application app_full(app);
    const RunResult full =
        run_simulation(*platform_full, app_full, *governor_full, full_options);

    const std::string ckpt = temp_path("midblock-" + name + ".ckpt");
    const auto platform_stop = hw::Platform::odroid_xu3_a15();
    const auto governor_stop = make_governor(name);
    RunOptions stop_options;
    stop_options.max_frames = kStop;
    stop_options.block_frames = kBlock;
    CheckpointSink checkpoint(ckpt);
    stop_options.sinks = {&checkpoint};
    const wl::Application app_stop(app);
    (void)run_simulation(*platform_stop, app_stop, *governor_stop,
                         stop_options);

    const auto platform_resume = hw::Platform::odroid_xu3_a15();
    const auto governor_resume = make_governor(name);
    TraceSink tail_trace;
    RunOptions resume_options;
    resume_options.max_frames = kFull;
    resume_options.block_frames = kBlock;
    resume_options.resume_from = ckpt;
    resume_options.sinks = {&tail_trace};
    const wl::Application app_resume(app);
    const RunResult resumed = run_simulation(*platform_resume, app_resume,
                                             *governor_resume, resume_options);

    expect_results_bitequal(full, resumed);
    ASSERT_EQ(tail_trace.records().size(), kFull - kStop);
    ASSERT_EQ(full_trace.records().size(), kFull);
    for (std::size_t i = 0; i < tail_trace.records().size(); ++i) {
      expect_records_bitequal(full_trace.records()[kStop + i],
                              tail_trace.records()[i]);
    }
  }
}

}  // namespace
}  // namespace prime::sim
