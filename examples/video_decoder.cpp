/// \file video_decoder.cpp
/// \brief The paper's motivating scenario: a periodic video decoder under the
///        proposed RTM, with per-frame visibility.
///
/// Decodes an MPEG4-class stream at a given fps on the simulated XU3 A15
/// cluster under the many-core Q-learning RTM, prints a per-frame excerpt
/// (frame kind, demand, chosen OPP, slack, power), a learning timeline
/// (epsilon, explorations) and the end-of-run summary. Optionally writes the
/// full per-frame series to a CSV for plotting.
///
/// Usage: video_decoder [key=value ...]
///   app.fps=24 app.frames=300 app.seed=7 out.csv=run.csv out.head=40
///   gov.name=rtm-manycore — any registered governor spec, including
///   parameterised ones such as "gov.name=rtm(policy=upd,alpha=0.2)" or
///   "gov.name=thermal-cap(inner=rtm-manycore,trip=80)"
#include <iostream>
#include <memory>

#include "common/strings.hpp"
#include "hw/platform.hpp"
#include "rtm/rtm_governor.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/telemetry.hpp"
#include "support/front.hpp"

namespace {

int run(const prime::common::Config& cfg) {
  using namespace prime;

  const auto platform = hw::Platform::odroid_xu3_a15();

  sim::ExperimentSpec spec;
  spec.workload = cfg.get_string("app.workload", "mpeg4");
  spec.fps = cfg.get_double("app.fps", 24.0);
  spec.frames = cfg.get_count("app.frames", 300);
  spec.seed = cfg.get_count("app.seed", 7, 0);
  const wl::Application app = sim::make_application(spec, *platform);

  const auto governor =
      sim::make_governor(cfg.get_string("gov.name", "rtm-manycore"));
  const std::string csv_path = cfg.get_string("out.csv", "");
  const std::size_t head = cfg.get_count("out.head", 32, 0);

  // Observation is all telemetry sinks: the head-of-run table reads a full
  // trace, the learning timeline is an ad-hoc callback probe, and the CSV
  // (when requested) streams per frame instead of materialising a series.
  sim::TraceSink trace;
  std::vector<double> epsilons;
  sim::CallbackSink probe([&epsilons](const sim::EpochRecord&, gov::Governor& g) {
    if (const auto* rtm = dynamic_cast<const rtm::RtmGovernor*>(&g)) {
      epsilons.push_back(rtm->epsilon());
    }
  });
  sim::RunOptions options;
  options.sinks = {&trace, &probe};
  std::unique_ptr<sim::CsvSink> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<sim::CsvSink>(csv_path);
    options.sinks.push_back(csv.get());
  }

  const sim::RunResult run = sim::run_simulation(*platform, app, *governor, options);

  std::cout << "Video decode: " << app.name() << " @ " << spec.fps
            << " fps under " << run.governor << "\n\n";
  sim::TextTable t;
  t.title = "First " + std::to_string(head) + " frames";
  t.headers = {"frame", "kind", "demand (Mcyc)", "OPP (MHz)",
               "frame time (ms)", "slack", "power (W)"};
  const std::vector<sim::EpochRecord>& records = trace.records();
  for (std::size_t i = 0; i < records.size() && i < head; ++i) {
    const auto& e = records[i];
    t.rows.push_back({std::to_string(e.epoch),
                      wl::frame_kind_tag(app.trace().at(i).kind),
                      common::format_double(static_cast<double>(e.demand) / 1e6, 1),
                      common::format_double(common::to_mhz(e.frequency), 0),
                      common::format_double(common::to_ms(e.frame_time), 2),
                      common::format_double(e.slack, 3),
                      common::format_double(e.sensor_power, 2)});
  }
  sim::print_table(std::cout, t);

  std::cout << "\nSummary: energy "
            << common::format_double(run.total_energy, 2) << " J, misses "
            << run.deadline_misses << "/" << run.epoch_count
            << ", mean normalised performance "
            << common::format_double(run.mean_normalized_performance(), 3)
            << "\n";
  if (const auto* rtm = dynamic_cast<const rtm::RtmGovernor*>(governor.get())) {
    std::cout << "Learning: " << rtm->exploration_count()
              << " explorations, final epsilon "
              << common::format_double(rtm->epsilon(), 4)
              << ", avg misprediction "
              << common::format_double(
                     rtm->predictor().misprediction_stats().mean() * 100.0, 1)
              << "%\n";
  }

  if (csv != nullptr) {
    std::cout << "Streamed " << csv->rows_written() << " per-frame rows to "
              << csv_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return prime::front::run_main("video_decoder", argc, argv, run);
}
