/// \file probes.hpp
/// \brief Instruments that time calls into the simulator's layers from the
///        outside: a forwarding governor, a piece clock for the untraced
///        jobs, a forwarding sink, a run-stamping sink for the builder, a
///        line-counting stream buffer, and replays of the
///        frame-source and hardware layers over a recorded decision stream.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench.hpp"
#include "gov/governor.hpp"
#include "gov/merge.hpp"
#include "hw/platform.hpp"
#include "sim/telemetry.hpp"
#include "wl/application.hpp"

namespace perfbench {

/// Forwarding governor: counts every decide() call, times every Nth one
/// (a "gov.decide" span under \p parent), and optionally records the chosen
/// OPP of every call and the epoch overhead of every epoch so the hardware
/// layer can be replayed on the same decisions. Forwards name, reset,
/// save_state, load_state, epoch_overhead, inner_governor and the merger.
class TimedGovernor : public prime::gov::Governor {
 public:
  TimedGovernor(prime::gov::Governor& inner, Tracer* tracer,
                std::uint32_t parent, std::size_t sample_every,
                bool record_decisions);

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::size_t decide(
      const prime::gov::DecisionContext& ctx,
      const std::optional<prime::gov::EpochObservation>& last) override;
  [[nodiscard]] prime::common::Seconds epoch_overhead() const override;
  void reset() override { inner_.reset(); }
  void save_state(std::ostream& out) const override { inner_.save_state(out); }
  void load_state(std::istream& in) override { inner_.load_state(in); }
  [[nodiscard]] const prime::gov::Governor* inner_governor()
      const noexcept override {
    return &inner_;
  }
  [[nodiscard]] std::unique_ptr<prime::gov::StateMerger> make_state_merger()
      const override {
    return inner_.make_state_merger();
  }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] const std::vector<double>& samples_ns() const noexcept {
    return samples_ns_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& actions() const noexcept {
    return actions_;
  }
  [[nodiscard]] const std::vector<double>& overheads() const noexcept {
    return overheads_;
  }

 private:
  prime::gov::Governor& inner_;
  Tracer* tracer_;
  std::uint32_t parent_;
  std::size_t every_;
  bool record_;
  std::uint64_t calls_ = 0;
  std::vector<double> samples_ns_;
  std::vector<std::uint8_t> actions_;
  mutable std::vector<double> overheads_;
};

/// Forwarding governor for the untraced runs: reads the wall clock and the
/// process CPU time at the first decide() call and after every
/// \p calls_per_piece further calls, so one long run yields many equal
/// pieces of work with their own host times. Adds one virtual call per
/// decision and two clock reads per piece; forwards like TimedGovernor.
class PieceClock : public prime::gov::Governor {
 public:
  PieceClock(prime::gov::Governor& inner, std::size_t calls_per_piece)
      : inner_(inner), every_(calls_per_piece) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::size_t decide(
      const prime::gov::DecisionContext& ctx,
      const std::optional<prime::gov::EpochObservation>& last) override {
    if (calls_++ % every_ == 0) stamp();
    return inner_.decide(ctx, last);
  }
  [[nodiscard]] prime::common::Seconds epoch_overhead() const override {
    return inner_.epoch_overhead();
  }
  void reset() override { inner_.reset(); }
  void save_state(std::ostream& out) const override { inner_.save_state(out); }
  void load_state(std::istream& in) override { inner_.load_state(in); }
  [[nodiscard]] const prime::gov::Governor* inner_governor()
      const noexcept override {
    return &inner_;
  }
  [[nodiscard]] std::unique_ptr<prime::gov::StateMerger> make_state_merger()
      const override {
    return inner_.make_state_merger();
  }

  /// Wall and CPU nanoseconds of every whole piece; a trailing partial
  /// piece is not reported.
  [[nodiscard]] std::vector<double> piece_wall_ns() const;
  [[nodiscard]] std::vector<double> piece_cpu_ns() const;

 private:
  void stamp();

  prime::gov::Governor& inner_;
  std::size_t every_;
  std::uint64_t calls_ = 0;
  std::vector<std::int64_t> wall_ns_;
  std::vector<double> cpu_ns_;
};

/// Forwarding sink: times every on_epoch call of \p inner ("sink.<label>"
/// spans every Nth call under \p parent). Only for sinks the engine does not
/// bind by type.
class ForwardSink : public prime::sim::TelemetrySink {
 public:
  ForwardSink(std::unique_ptr<prime::sim::TelemetrySink> inner, Tracer* tracer,
              std::uint32_t parent, const char* span_name,
              std::size_t sample_every);

  void on_run_begin(const prime::sim::RunContext& ctx) override {
    inner_->on_run_begin(ctx);
  }
  void on_epoch(const prime::sim::EpochRecord& record,
                prime::gov::Governor& governor) override;
  void on_run_end(const prime::sim::RunResult& result) override {
    inner_->on_run_end(result);
  }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] double total_ns() const noexcept { return total_ns_; }

 private:
  std::unique_ptr<prime::sim::TelemetrySink> inner_;
  Tracer* tracer_;
  std::uint32_t parent_;
  const char* span_name_;
  std::size_t every_;
  std::uint64_t calls_ = 0;
  double total_ns_ = 0.0;
};

/// One scenario or Oracle run observed through the `perfbench-stamp` sink.
struct RunStamp {
  std::string governor;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t epochs = 0;
};

/// Process-wide collector the `perfbench-stamp` telemetry sink reports to.
/// The sink is registered under that name so ExperimentBuilder::telemetry()
/// can attach it to every scenario and Oracle run.
class StampBoard {
 public:
  static StampBoard& instance();
  void clear();
  void add(RunStamp stamp);
  [[nodiscard]] std::vector<RunStamp> take();

 private:
  std::mutex mu_;
  std::vector<RunStamp> stamps_;
};

/// Output stream buffer that keeps no bytes, only counts the lines.
class LineCountingBuf : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t lines() const noexcept { return lines_; }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  std::uint64_t lines_ = 0;
};

/// Host time of the frame-source and hardware layers, replayed alone over
/// the frames and decisions a traced run recorded.
struct LayerReplay {
  std::uint64_t frames = 0;
  std::uint64_t epoch_calls = 0;   ///< Cluster::run_epoch_into calls.
  std::uint64_t sensor_calls = 0;  ///< PowerSensor::integrate calls.
  double fill_ns = 0.0;            ///< Application::fill_block.
  double epoch_ns = 0.0;           ///< set_opp + run_epoch_into.
  double sensor_ns = 0.0;          ///< PowerSensor::integrate.
  /// Model energy summed per epoch as the engine sums it, and the sensor's
  /// integrated energy at the end: both must equal the traced run's
  /// RunResult bit for bit, or the replay did other work than the run.
  double energy_j = 0.0;
  double measured_energy_j = 0.0;
};

/// Replay \p frames frames of \p app on \p platform (both fresh, built as the
/// traced run built them) with the decisions and overheads \p gov recorded,
/// through the same placement the engine used.
[[nodiscard]] LayerReplay replay_layers(prime::hw::Platform& platform,
                                        const prime::wl::Application& app,
                                        const TimedGovernor& gov,
                                        std::size_t frames,
                                        const std::string& placement);

/// The steady-clock cost of one now_ns() pair, median of many, so span
/// timings of very short calls can be read against it.
[[nodiscard]] double clock_pair_ns();

}  // namespace perfbench
