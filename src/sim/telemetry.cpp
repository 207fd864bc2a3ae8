#include "sim/telemetry.hpp"

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "common/csv.hpp"
#include "common/units.hpp"

namespace prime::sim {

TelemetryRegistry& telemetry_registry() {
  // Meyers singleton: safe against static-initialisation order, since the
  // registrars below call this during their own construction.
  static TelemetryRegistry registry("telemetry sink");
  return registry;
}

std::unique_ptr<TelemetrySink> make_sink(const std::string& spec) {
  return telemetry_registry().create(spec);
}

std::vector<std::string> sink_names() { return telemetry_registry().names(); }

// --- AggregateSink -----------------------------------------------------------

void AggregateSink::on_run_begin(const RunContext& ctx) {
  result_ = RunResult{};
  result_.governor = ctx.governor;
  result_.application = ctx.application;
}

void AggregateSink::on_epoch(const EpochRecord& record, gov::Governor&) {
  result_.accumulate(record);
}

void AggregateSink::on_run_end(const RunResult& result) {
  result_.measured_energy = result.measured_energy;
}

// --- TraceSink ---------------------------------------------------------------

void TraceSink::on_run_begin(const RunContext& ctx) {
  records_.clear();
  records_.reserve(ctx.frames);
}

void TraceSink::on_epoch(const EpochRecord& record, gov::Governor&) {
  records_.push_back(record);
}

// --- TailSink ----------------------------------------------------------------

TailSink::TailSink(std::size_t n) : buffer_(n) {}

void TailSink::on_run_begin(const RunContext&) { buffer_.clear(); }

void TailSink::on_epoch(const EpochRecord& record, gov::Governor&) {
  buffer_.push(record);
}

// --- The shared series-CSV row encoding --------------------------------------

void write_series_header(common::CsvWriter& writer) {
  writer.header({"frame", "demand", "freq_mhz", "slack", "power_w",
                 "energy_mj"});
}

void write_series_row(common::CsvWriter& writer, const EpochRecord& record) {
  const double cells[] = {static_cast<double>(record.epoch),
                          static_cast<double>(record.demand),
                          common::to_mhz(record.frequency), record.slack,
                          record.sensor_power, common::to_mj(record.energy)};
  writer.row(cells);
}

// --- CsvSink -----------------------------------------------------------------

CsvSink::CsvSink(std::ostream& out)
    : writer_(std::make_unique<common::CsvWriter>(out)) {}

CsvSink::CsvSink(std::string path) : path_(std::move(path)) {}

CsvSink::~CsvSink() = default;

void CsvSink::on_run_begin(const RunContext&) {
  if (writer_ == nullptr) {  // file mode, first run: open lazily
    auto file = std::make_unique<std::ofstream>(path_);
    if (!*file) {
      throw std::runtime_error("CsvSink: cannot open '" + path_ +
                               "' for writing (does the parent directory "
                               "exist?)");
    }
    writer_ = std::make_unique<common::CsvWriter>(*file);
    owned_ = std::move(file);
  }
  if (header_written_) return;
  write_series_header(*writer_);
  header_written_ = true;
}

void CsvSink::on_epoch(const EpochRecord& record, gov::Governor&) {
  write_series_row(*writer_, record);
}

std::size_t CsvSink::rows_written() const noexcept {
  return writer_ == nullptr ? 0 : writer_->rows_written();
}

// --- ConvergenceSink ---------------------------------------------------------

ConvergenceSink::ConvergenceSink(std::size_t stable_epochs)
    : tracker_(stable_epochs) {}

void ConvergenceSink::on_run_begin(const RunContext&) {
  tracker_.reset();
  learner_ = nullptr;
  resolved_ = false;
}

void ConvergenceSink::on_epoch(const EpochRecord& record,
                               gov::Governor& governor) {
  // The governor is fixed for the whole run: unwrap decorators
  // (thermal-cap, ...) until a learning governor appears once, on the first
  // epoch, keeping the cross-cast off the per-epoch path. Runs under
  // non-learning governors are ignored.
  if (!resolved_) {
    resolved_ = true;
    for (const gov::Governor* g = &governor; g != nullptr;
         g = g->inner_governor()) {
      if (const auto* learner = dynamic_cast<const gov::Learner*>(g)) {
        learner_ = learner;
        break;
      }
    }
  }
  if (learner_ != nullptr) {
    tracker_.observe(record.epoch, learner_->greedy_policy(),
                     learner_->exploration_count());
  }
}

// --- SampleSink --------------------------------------------------------------

SampleSink::SampleSink(std::size_t every, std::unique_ptr<TelemetrySink> inner)
    : every_(every), inner_(std::move(inner)) {
  if (every_ == 0) {
    throw std::invalid_argument("SampleSink: every must be >= 1");
  }
  if (inner_ == nullptr) {
    throw std::invalid_argument("SampleSink: inner sink required");
  }
}

void SampleSink::bind(const RunBinding* run) { inner_->bind(run); }

void SampleSink::on_run_begin(const RunContext& ctx) {
  seen_ = 0;
  forwarded_ = 0;
  inner_->on_run_begin(ctx);
}

void SampleSink::on_epoch(const EpochRecord& record, gov::Governor& governor) {
  if (seen_++ % every_ == 0) {
    inner_->on_epoch(record, governor);
    ++forwarded_;
  }
}

void SampleSink::on_run_end(const RunResult& result) {
  inner_->on_run_end(result);
}

// --- CallbackSink ------------------------------------------------------------

CallbackSink::CallbackSink(EpochCallback callback)
    : callback_(std::move(callback)) {}

void CallbackSink::on_epoch(const EpochRecord& record,
                            gov::Governor& governor) {
  if (callback_) callback_(record, governor);
}

// --- RunEmitter --------------------------------------------------------------

RunEmitter::RunEmitter(RunResult& result, std::vector<TelemetrySink*> sinks,
                       const RunContext& ctx)
    : result_(&result), sinks_(std::move(sinks)) {
  result_->governor = ctx.governor;
  result_->application = ctx.application;
  for (TelemetrySink* sink : sinks_) sink->on_run_begin(ctx);
}

void RunEmitter::emit(const EpochRecord& record, gov::Governor& governor) {
  result_->accumulate(record);
  for (TelemetrySink* sink : sinks_) sink->on_epoch(record, governor);
}

void RunEmitter::finish(common::Joule measured_energy) {
  result_->measured_energy = measured_energy;
  for (TelemetrySink* sink : sinks_) sink->on_run_end(*result_);
}

// --- Registry entries --------------------------------------------------------

namespace {

const TelemetrySinkRegistrar reg_aggregate{
    telemetry_registry(), "aggregate",
    "incremental O(1) energy/time/miss-rate/mean-power aggregates",
    [](const common::Spec&) { return std::make_unique<AggregateSink>(); }};

const TelemetrySinkRegistrar reg_trace{
    telemetry_registry(), "trace",
    "full per-epoch record vector (opt-in; O(frames) memory)",
    [](const common::Spec&) { return std::make_unique<TraceSink>(); }};

const TelemetrySinkRegistrar reg_tail{
    telemetry_registry(), "tail",
    "ring buffer of the last n epochs: tail(n=64)",
    [](const common::Spec& spec) {
      const std::size_t n = spec.get_count("n", 64);
      // Upper bound keeps a typo'd spec a diagnostic instead of an eager
      // multi-GB ring allocation; windows beyond this want a TraceSink.
      constexpr std::size_t kMaxTail = 1'000'000;
      if (n > kMaxTail) {
        throw std::invalid_argument(
            "telemetry sink 'tail': n must be in [1, " +
            std::to_string(kMaxTail) + "] (got " + std::to_string(n) + ")");
      }
      return std::make_unique<TailSink>(n);
    }};

const TelemetrySinkRegistrar reg_csv{
    telemetry_registry(), "csv",
    "streaming per-frame series CSV: csv(path=out/run.csv); stdout without "
    "path=",
    [](const common::Spec& spec) -> std::unique_ptr<TelemetrySink> {
      const std::string path = spec.get_string("path", "");
      if (path.empty()) return std::make_unique<CsvSink>(std::cout);
      return std::make_unique<CsvSink>(path);
    }};

const TelemetrySinkRegistrar reg_sample{
    telemetry_registry(), "sample",
    "decimating pass-through to an inner sink: "
    "sample(every=1000,inner=csv(path=out/run.csv))",
    [](const common::Spec& spec) {
      const std::size_t every = spec.get_count("every", 0);
      const std::string inner = spec.get_string("inner", "");
      if (inner.empty()) {
        throw std::invalid_argument(
            "telemetry sink 'sample': an inner sink spec is required, e.g. "
            "sample(every=1000,inner=csv(path=out/run.csv))");
      }
      return std::make_unique<SampleSink>(every, make_sink(inner));
    }};

const TelemetrySinkRegistrar reg_convergence{
    telemetry_registry(), "convergence",
    "policy-stability convergence tracking: convergence(stable=25)",
    [](const common::Spec& spec) {
      return std::make_unique<ConvergenceSink>(spec.get_count("stable", 25));
    }};

}  // namespace

}  // namespace prime::sim
