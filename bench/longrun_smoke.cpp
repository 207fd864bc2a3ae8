/// \file longrun_smoke.cpp
/// \brief Long-run memory smoke: proves that a run with only aggregate
///        telemetry uses memory independent of frame count.
///
/// Before the streaming telemetry API the engine materialised one EpochRecord
/// (~120 B) per frame inside RunResult, so a million-frame run carried a
/// >100 MB record vector. With aggregates-only observation the per-epoch
/// footprint is zero; with stream=1 the workload trace itself (16 B/frame,
/// the last O(frames) allocation) is replaced by a lazy wl::FrameSource, so
/// the whole run is constant-memory at any frame count. This tool runs a
/// configurable number of frames with no per-epoch sink (plus an optional
/// bounded tail window and an optional decimated CSV via the sample sink),
/// prints the aggregates and the process peak RSS, and — when max-rss-mb is
/// set — fails loudly if the bound is exceeded, which is how CI pins the
/// no-O(frames) property end to end.
///
/// With bintrace=<path> the run additionally streams every epoch into a
/// compact `.bt` binary trace (constant memory: records go straight to the
/// file), then round-trips it through BinTraceReader — the record count and
/// bit-identical aggregate sums must match the live run — and reports the
/// on-disk bytes/epoch next to what the equivalent CSV text would cost.
///
/// Checkpoint/resume: checkpoint=<path> writes a resumable `.ckpt`
/// (checkpoint-every=n for a mid-run cadence; 0 = at run end only), and
/// resume=<path> continues a stopped run from its checkpoint. A resumed run
/// writes only its tail into the bintrace; verify-tail=<ref.bt> then proves
/// the resume was bit-identical by comparing every tail record byte-for-byte
/// against the uninterrupted reference trace — how CI pins the
/// kill-at-500k/resume-to-1M property end to end, still under the RSS bound.
///
/// The workload calibration window is the run length by default; a run that
/// will be resumed *beyond* its own length must calibrate over the eventual
/// full length (calib-frames=) so the stopped and uninterrupted runs stream
/// the identical demand sequence — the application, like the governor, must
/// be reconstructed identically for a resume to be bit-identical.
///
/// Live dashboard: dashboard-port= attaches a dashboard(port=) sink to the
/// run (dashboard-every= sets its SSE cadence). After the run the bench
/// fetches its own /snapshot over real HTTP and byte-compares the served
/// aggregates object against sim::snapshot_aggregates_json of the run's
/// RunResult — the final snapshot must equal the sealed aggregate exactly.
/// dashboard-linger-ms= keeps the server alive after that check until an
/// external client (CI's dash_tool poller) has been answered or the budget
/// expires, so background pollers cannot race the run's exit.
///
/// Usage: longrun_smoke [frames=200000] [fps=25] [workload=h264]
///                      [governor=ondemand] [stream=0] [tail=0]
///                      [sample-every=0] [sample-path=longrun_sample.csv]
///                      [bintrace=] [max-rss-mb=0]
///                      [checkpoint=] [checkpoint-every=0]
///                      [resume=] [verify-tail=] [calib-frames=0]
///                      [dashboard-port=0] [dashboard-every=100000]
///                      [dashboard-linger-ms=0]
#include <chrono>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>

#include <sys/resource.h>

#include "common/config.hpp"
#include "common/http.hpp"
#include "common/strings.hpp"
#include "hw/platform.hpp"
#include "sim/bintrace.hpp"
#include "sim/checkpoint.hpp"
#include "sim/dashboard.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"

namespace {

/// Peak resident set size of this process in MB, negative when it cannot be
/// measured (so an enforced bound fails closed instead of silently passing).
/// ru_maxrss is kilobytes on Linux but bytes on macOS.
double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1.0;
#ifdef __APPLE__
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
}

/// Discards everything written to it, keeping only the byte count — sizes
/// the CSV text a trace would cost without materialising any of it.
class CountingStreamBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

 protected:
  int overflow(int ch) override {
    if (ch != traits_type::eof()) ++bytes_;
    return ch;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::size_t>(n);
    return n;
  }

 private:
  std::size_t bytes_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace prime;

  common::Config cfg;
  cfg.parse_args(argc, argv);
  const auto frames = static_cast<std::size_t>(cfg.get_int("frames", 200000));
  const double max_rss_mb = cfg.get_double("max-rss-mb", 0.0);
  const auto tail = static_cast<std::size_t>(cfg.get_int("tail", 0));
  const bool stream = cfg.get_bool("stream", false);
  const auto sample_every =
      static_cast<std::size_t>(cfg.get_int("sample-every", 0));

  const auto platform = hw::Platform::odroid_xu3_a15();
  sim::ExperimentSpec spec;
  spec.workload = cfg.get_string("workload", "h264");
  spec.fps = cfg.get_double("fps", 25.0);
  // Calibration window (see the header comment): defaults to the run length,
  // overridden when this run is the stopped half of a longer resumable run.
  const auto calib =
      static_cast<std::size_t>(cfg.get_int("calib-frames", 0));
  spec.frames = calib > 0 ? calib : frames;
  spec.stream = stream;
  const wl::Application app = sim::make_application(spec, *platform);
  const auto governor =
      sim::make_governor(cfg.get_string("governor", "ondemand"));

  // Aggregate-only observation: RunResult's O(1) aggregates, optionally plus
  // a fixed-capacity tail window and a decimated (bounded-row) CSV series.
  // No O(frames) state anywhere; with stream=1 not even the trace exists.
  sim::RunOptions options;
  // Sole length authority for streaming runs; clamps the (possibly longer,
  // calib-frames-sized) materialised trace otherwise.
  options.max_frames = frames;
  options.resume_from = cfg.get_string("resume", "");
  std::unique_ptr<sim::TelemetrySink> tail_sink;
  if (tail > 0) {
    tail_sink = sim::make_sink("tail(n=" + std::to_string(tail) + ")");
    options.sinks.push_back(tail_sink.get());
  }
  const std::string bintrace_path = cfg.get_string("bintrace", "");
  std::unique_ptr<sim::TelemetrySink> bintrace_sink;
  if (!bintrace_path.empty()) {
    bintrace_sink = sim::make_sink("bintrace(path=" + bintrace_path + ")");
    options.sinks.push_back(bintrace_sink.get());
  }
  std::unique_ptr<sim::TelemetrySink> sample_sink;
  if (sample_every > 0) {
    const std::string path =
        cfg.get_string("sample-path", "longrun_sample.csv");
    sample_sink = sim::make_sink("sample(every=" +
                                 std::to_string(sample_every) +
                                 ",inner=csv(path=" + path + "))");
    options.sinks.push_back(sample_sink.get());
  }
  const auto dashboard_port =
      static_cast<std::uint16_t>(cfg.get_int("dashboard-port", 0));
  std::unique_ptr<sim::DashboardSink> dashboard;
  if (dashboard_port != 0 || cfg.has("dashboard-port")) {
    // Constructed directly (not via make_sink) for bound_port() and the
    // post-run self-check below. Constant-memory like every other sink
    // here, so it rides inside the same RSS bound.
    dashboard = std::make_unique<sim::DashboardSink>(
        dashboard_port,
        static_cast<std::size_t>(cfg.get_int("dashboard-every", 100000)));
    options.sinks.push_back(dashboard.get());
  }
  const std::string checkpoint_path = cfg.get_string("checkpoint", "");
  const auto checkpoint_every =
      static_cast<std::size_t>(cfg.get_int("checkpoint-every", 0));
  std::unique_ptr<sim::CheckpointSink> checkpoint;
  if (!checkpoint_path.empty()) {
    checkpoint = std::make_unique<sim::CheckpointSink>(checkpoint_path,
                                                       checkpoint_every);
    options.sinks.push_back(checkpoint.get());
  } else if (checkpoint_every != 0) {
    throw std::invalid_argument(
        "longrun_smoke: checkpoint-every= requires checkpoint=<path>");
  }
  const sim::RunResult run =
      sim::run_simulation(*platform, app, *governor, options);

  const double rss = peak_rss_mb();
  std::cout << "Long-run smoke: " << run.application << " @ " << spec.fps
            << " fps under " << run.governor
            << (stream ? " (streaming frames)" : " (materialised trace)")
            << "\n"
            << "  frames:        " << run.epoch_count << "\n"
            << "  energy:        " << common::format_double(run.total_energy, 1)
            << " J\n"
            << "  sim time:      " << common::format_double(run.total_time, 1)
            << " s\n"
            << "  miss rate:     " << common::format_double(run.miss_rate(), 4)
            << "\n"
            << "  mean power:    " << common::format_double(run.mean_power(), 2)
            << " W\n"
            << "  peak RSS:      " << common::format_double(rss, 1) << " MB\n";

  if (!bintrace_path.empty()) {
    // Round-trip the on-disk trace: the reader must see exactly the epochs
    // *this session* executed (the tail, for resumed runs), and — for fresh
    // runs, whose trace covers the whole history — re-accumulating the
    // stored records (same values, same order, same fold) must reproduce the
    // run's aggregate sums bit for bit; any drift means the format lost
    // information.
    sim::BinTraceReader reader(bintrace_path);
    sim::RunResult replayed;
    while (const auto record = reader.next()) replayed.accumulate(*record);
    // Records carry absolute epoch indices, so a resumed session's start
    // offset is simply its first record's epoch — no second checkpoint
    // parse. An empty trace from a resumed run means the checkpoint already
    // sat at the run length (a zero-epoch extension): nothing to verify.
    std::size_t resume_start = 0;
    if (reader.record_count() > 0) {
      resume_start = static_cast<std::size_t>(reader.at(0).epoch);
    } else if (!options.resume_from.empty()) {
      resume_start = run.epoch_count;
    }
    const std::size_t session_epochs = run.epoch_count - resume_start;
    if (reader.record_count() != session_epochs ||
        (resume_start == 0 &&
         (replayed.total_energy != run.total_energy ||
          replayed.performance_sum != run.performance_sum ||
          replayed.power_sum != run.power_sum ||
          replayed.deadline_misses != run.deadline_misses))) {
      std::cerr << "FAIL: bintrace round-trip mismatch — "
                << reader.record_count() << " records vs "
                << session_epochs << " session epochs, replayed energy "
                << replayed.total_energy << " J vs " << run.total_energy
                << " J\n";
      return 1;
    }
    // Size the equivalent CSV text without writing it: the exact rows the
    // csv(path=) sink would emit, streamed into a counting buffer.
    CountingStreamBuf counter;
    std::ostream counting(&counter);
    reader.to_csv(counting);
    const auto epochs = static_cast<double>(session_epochs);
    std::cout << "  bintrace:      " << bintrace_path << " ("
              << reader.file_size() << " B, "
              << common::format_double(
                     static_cast<double>(reader.file_size()) / epochs, 1)
              << " B/epoch all 13 fields exact, vs "
              << common::format_double(
                     static_cast<double>(counter.bytes()) / epochs, 1)
              << " B/epoch as 6-column CSV text) — round-trip OK\n";

    // verify-tail: prove the resumed session is bit-identical to the same
    // span of an uninterrupted reference run by comparing every record's
    // on-disk encoding byte for byte.
    const std::string ref_path = cfg.get_string("verify-tail", "");
    if (!ref_path.empty()) {
      sim::BinTraceReader ref(ref_path);
      if (ref.record_count() < resume_start + reader.record_count()) {
        std::cerr << "FAIL: reference trace " << ref_path << " holds "
                  << ref.record_count() << " records, fewer than resume "
                  << "offset " << resume_start << " + tail "
                  << reader.record_count() << "\n";
        return 1;
      }
      for (std::size_t i = 0; i < reader.record_count(); ++i) {
        unsigned char ours[sim::kBinTraceRecordSize];
        unsigned char theirs[sim::kBinTraceRecordSize];
        sim::encode_record(reader.at(i), ours);
        sim::encode_record(ref.at(resume_start + i), theirs);
        if (std::memcmp(ours, theirs, sizeof(ours)) != 0) {
          std::cerr << "FAIL: resumed tail diverges from the uninterrupted "
                    << "reference at epoch " << (resume_start + i)
                    << " — resume is not bit-identical\n";
          return 1;
        }
      }
      std::cout << "  verify-tail:   " << reader.record_count()
                << " records bit-identical to " << ref_path << " at offset "
                << resume_start << "\n";
    }
  }

  if (dashboard) {
    // Final-snapshot self-check over real HTTP: the aggregates object the
    // server hands a client after run end must be byte-identical to the
    // sealed RunResult's encoding — the dashboard cannot drift from the
    // aggregate sink even at the end of a million-epoch run.
    const std::uint64_t requests_before = dashboard->requests_served();
    const common::HttpResult snap =
        common::http_get("127.0.0.1", dashboard->bound_port(), "/snapshot");
    const std::string want =
        "\"aggregates\":" + sim::snapshot_aggregates_json(run);
    if (snap.status != 200 || snap.body.find(want) == std::string::npos) {
      std::cerr << "FAIL: final /snapshot (status " << snap.status
                << ") does not carry the sealed aggregates\n  want "
                << want << "\n  got  " << snap.body << "\n";
      return 1;
    }
    std::cout << "  dashboard:     port " << dashboard->bound_port()
              << ", final snapshot matches the sealed aggregates\n";
    // Linger: a background poller (CI's dash_tool) may still be between
    // retries when a short run ends. If nobody polled during the run, keep
    // the server up until one external request lands or the budget expires.
    const long long linger_ms = cfg.get_int("dashboard-linger-ms", 0);
    if (linger_ms > 0 && requests_before == 0) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(linger_ms);
      // +1 for our own self-check request above.
      while (dashboard->requests_served() <= requests_before + 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
  }

  if (max_rss_mb > 0.0 && rss <= 0.0) {
    std::cerr << "FAIL: peak RSS could not be measured, so the "
              << common::format_double(max_rss_mb, 1)
              << " MB bound cannot be enforced\n";
    return 1;
  }
  if (max_rss_mb > 0.0 && rss > max_rss_mb) {
    std::cerr << "FAIL: peak RSS " << common::format_double(rss, 1)
              << " MB exceeds the " << common::format_double(max_rss_mb, 1)
              << " MB bound — per-epoch or per-frame state is leaking into "
                 "the run path\n";
    return 1;
  }
  return 0;
}
