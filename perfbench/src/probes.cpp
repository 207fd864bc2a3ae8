#include "probes.hpp"

#include <algorithm>

#include "common/spec.hpp"
#include "sim/placement.hpp"

namespace perfbench {

using namespace prime;

TimedGovernor::TimedGovernor(gov::Governor& inner, Tracer* tracer,
                             std::uint32_t parent, std::size_t sample_every,
                             bool record_decisions)
    : inner_(inner),
      tracer_(tracer),
      parent_(parent),
      every_(std::max<std::size_t>(1, sample_every)),
      record_(record_decisions) {}

std::size_t TimedGovernor::decide(
    const gov::DecisionContext& ctx,
    const std::optional<gov::EpochObservation>& last) {
  const bool sample = calls_++ % every_ == 0;
  std::size_t action = 0;
  if (sample) {
    const std::int64_t t0 = now_ns();
    action = inner_.decide(ctx, last);
    const std::int64_t t1 = now_ns();
    samples_ns_.push_back(static_cast<double>(t1 - t0));
    if (tracer_ != nullptr) tracer_->record("gov.decide", parent_, t0, t1);
  } else {
    action = inner_.decide(ctx, last);
  }
  if (record_) actions_.push_back(static_cast<std::uint8_t>(action));
  return action;
}

common::Seconds TimedGovernor::epoch_overhead() const {
  const common::Seconds ovh = inner_.epoch_overhead();
  if (record_) overheads_.push_back(ovh);
  return ovh;
}

void PieceClock::stamp() {
  wall_ns_.push_back(now_ns());
  cpu_ns_.push_back(cpu_ns_self_and_children());
}

std::vector<double> PieceClock::piece_wall_ns() const {
  std::vector<double> out;
  for (std::size_t i = 1; i < wall_ns_.size(); ++i) {
    out.push_back(static_cast<double>(wall_ns_[i] - wall_ns_[i - 1]));
  }
  return out;
}

std::vector<double> PieceClock::piece_cpu_ns() const {
  std::vector<double> out;
  for (std::size_t i = 1; i < cpu_ns_.size(); ++i) {
    out.push_back(cpu_ns_[i] - cpu_ns_[i - 1]);
  }
  return out;
}

ForwardSink::ForwardSink(std::unique_ptr<sim::TelemetrySink> inner,
                         Tracer* tracer, std::uint32_t parent,
                         const char* span_name, std::size_t sample_every)
    : inner_(std::move(inner)),
      tracer_(tracer),
      parent_(parent),
      span_name_(span_name),
      every_(std::max<std::size_t>(1, sample_every)) {}

void ForwardSink::on_epoch(const sim::EpochRecord& record,
                           gov::Governor& governor) {
  const std::int64_t t0 = now_ns();
  inner_->on_epoch(record, governor);
  const std::int64_t t1 = now_ns();
  total_ns_ += static_cast<double>(t1 - t0);
  if (tracer_ != nullptr && calls_ % every_ == 0) {
    tracer_->record(span_name_, parent_, t0, t1);
  }
  ++calls_;
}

StampBoard& StampBoard::instance() {
  static StampBoard board;
  return board;
}

void StampBoard::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stamps_.clear();
}

void StampBoard::add(RunStamp stamp) {
  std::lock_guard<std::mutex> lock(mu_);
  stamps_.push_back(std::move(stamp));
}

std::vector<RunStamp> StampBoard::take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RunStamp> out;
  out.swap(stamps_);
  return out;
}

namespace {

/// Stamps run begin and end on the steady clock; one instance per run.
class StampSink : public sim::TelemetrySink {
 public:
  void on_run_begin(const sim::RunContext& ctx) override {
    stamp_.governor = ctx.governor;
    stamp_.begin_ns = now_ns();
  }
  void on_epoch(const sim::EpochRecord&, gov::Governor&) override {}
  void on_run_end(const sim::RunResult& result) override {
    stamp_.end_ns = now_ns();
    stamp_.epochs = result.epoch_count;
    StampBoard::instance().add(stamp_);
  }

 private:
  RunStamp stamp_;
};

const sim::TelemetrySinkRegistrar reg_stamp{
    sim::telemetry_registry(), "perfbench-stamp",
    "benchmark probe: stamps each run's begin and end on the steady clock",
    [](const common::Spec&) { return std::make_unique<StampSink>(); }};

}  // namespace

LineCountingBuf::int_type LineCountingBuf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) return ch;
  const char c = traits_type::to_char_type(ch);
  xsputn(&c, 1);
  return ch;
}

std::streamsize LineCountingBuf::xsputn(const char* s, std::streamsize n) {
  lines_ += static_cast<std::uint64_t>(std::count(s, s + n, '\n'));
  return n;
}

LayerReplay replay_layers(hw::Platform& platform, const wl::Application& app,
                          const TimedGovernor& gov, std::size_t frames,
                          const std::string& placement) {
  LayerReplay out;
  const std::size_t domains = platform.domain_count();
  const std::vector<std::uint8_t>& actions = gov.actions();
  const std::vector<double>& ovh = gov.overheads();
  frames = std::min({frames, actions.size() / domains, ovh.size()});
  platform.reset();

  const std::size_t total = platform.total_cores();
  std::vector<std::size_t> dcores(domains);
  for (std::size_t d = 0; d < domains; ++d) {
    dcores[d] = platform.domain(d).core_count();
  }
  const sim::Placement place =
      domains > 1 ? sim::make_placement(placement, platform, &app)
                  : sim::Placement{};
  constexpr std::size_t kBlock = 64;
  wl::FrameBlock block;
  // Per frame of a block: every domain's work row, laid out [frame][domain].
  std::vector<std::vector<common::Cycles>> work(kBlock * domains);
  std::vector<hw::EpochScratch> scratch(domains);
  std::vector<double> power(kBlock);
  std::vector<double> window(kBlock);
  std::vector<double> frame_energy(kBlock);
  hw::PowerSensor& sensor = platform.power_sensor();

  for (std::size_t i = 0; i < frames;) {
    const std::size_t n = std::min(kBlock, frames - i);
    const std::int64_t f0 = now_ns();
    app.fill_block(i, n, total, block);
    const std::int64_t f1 = now_ns();
    out.fill_ns += static_cast<double>(f1 - f0);

    // Scatter outside the timed region: it is engine work, not hardware.
    for (std::size_t b = 0; b < n; ++b) {
      const common::Cycles* row = block.row(b);
      for (std::size_t d = 0; d < domains; ++d) {
        work[b * domains + d].assign(dcores[d], 0);
      }
      for (std::size_t j = 0; j < total; ++j) {
        const std::size_t d = domains > 1 ? place.slot_domain[j] : 0;
        const std::size_t local = domains > 1 ? place.slot_local[j] : j;
        work[b * domains + d][local] += row[j];
      }
    }

    const std::int64_t e0 = now_ns();
    for (std::size_t b = 0; b < n; ++b) {
      const std::size_t frame = i + b;
      for (std::size_t d = 0; d < domains; ++d) {
        platform.domain(d).set_opp(actions[frame * domains + d]);
      }
      if (total != 0 && ovh[frame] > 0.0) {
        const std::size_t hd = domains > 1 ? place.slot_domain[0] : 0;
        const std::size_t local = domains > 1 ? place.slot_local[0] : 0;
        work[b * domains + hd][local] += common::cycles_at(
            platform.domain(hd).current_opp().frequency, ovh[frame]);
      }
      double energy = 0.0;
      double win = 0.0;
      for (std::size_t d = 0; d < domains; ++d) {
        hw::EpochScratch& sc = scratch[d];
        platform.domain(d).run_epoch_into(work[b * domains + d].data(),
                                          dcores[d], block.periods[b],
                                          block.mem_fraction, 1.0e9, sc);
        energy += sc.energy;
        win = std::max(win, sc.window);
      }
      window[b] = win;
      power[b] = domains > 1 ? (win > 0.0 ? energy / win : 0.0)
                             : scratch[0].avg_power;
      frame_energy[b] = energy;
    }
    const std::int64_t e1 = now_ns();
    out.epoch_ns += static_cast<double>(e1 - e0);
    out.epoch_calls += n * domains;

    const std::int64_t s0 = now_ns();
    for (std::size_t b = 0; b < n; ++b) {
      (void)sensor.integrate(power[b], window[b]);
    }
    const std::int64_t s1 = now_ns();
    out.sensor_ns += static_cast<double>(s1 - s0);
    out.sensor_calls += n;
    for (std::size_t b = 0; b < n; ++b) out.energy_j += frame_energy[b];
    i += n;
  }
  out.frames = frames;
  out.measured_energy_j = sensor.measured_energy();
  return out;
}

double clock_pair_ns() {
  std::vector<double> samples;
  samples.reserve(2001);
  for (int i = 0; i < 2001; ++i) {
    const std::int64_t a = now_ns();
    const std::int64_t b = now_ns();
    samples.push_back(static_cast<double>(b - a));
  }
  return median(samples);
}

}  // namespace perfbench
