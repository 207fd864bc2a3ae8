/// \file governor_comparison.cpp
/// \brief Compare every governor on one workload, with per-governor detail.
///
/// Runs each available governor on the same calibrated application and prints
/// the Table-I-style normalised comparison plus frequency/slack diagnostics
/// (mean OPP early vs late, late-window miss rate) that show *how* each
/// governor behaves, not just its totals.
///
/// Usage: governor_comparison [key=value ...]
///   app.workload=h264 app.fps=25 app.frames=3000 app.seed=42
///   gov.list=ondemand,mcdvfs,rtm-manycore   (comma-separated subset)
#include <iostream>

#include "common/stats.hpp"
#include "common/strings.hpp"
#include "hw/platform.hpp"
#include "sim/builder.hpp"
#include "sim/report.hpp"
#include "sim/telemetry.hpp"
#include "support/front.hpp"

namespace {

/// Frequency and slack behaviour of one traced run, split into early
/// (learning) and late (converged) halves.
struct Diagnostics {
  double mean_opp_early = 0.0;
  double mean_opp_late = 0.0;
  double mean_freq_late_mhz = 0.0;
  double late_miss_rate = 0.0;
  double mean_slack_late = 0.0;
};

Diagnostics diagnose(const std::vector<prime::sim::EpochRecord>& records) {
  Diagnostics d;
  const std::size_t n = records.size();
  if (n == 0) return d;
  const std::size_t half = n / 2;
  prime::common::RunningStats opp_early;
  prime::common::RunningStats opp_late;
  prime::common::RunningStats freq_late;
  prime::common::RunningStats slack_late;
  std::size_t late_misses = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& e = records[i];
    if (i < half) {
      opp_early.add(static_cast<double>(e.opp_index));
    } else {
      opp_late.add(static_cast<double>(e.opp_index));
      freq_late.add(prime::common::to_mhz(e.frequency));
      slack_late.add(e.slack);
      if (!e.deadline_met) ++late_misses;
    }
  }
  d.mean_opp_early = opp_early.mean();
  d.mean_opp_late = opp_late.mean();
  d.mean_freq_late_mhz = freq_late.mean();
  d.mean_slack_late = slack_late.mean();
  d.late_miss_rate =
      n - half == 0 ? 0.0
                    : static_cast<double>(late_misses) / static_cast<double>(n - half);
  return d;
}

void add_row(prime::sim::TextTable& table, const std::string& name,
             const Diagnostics& d) {
  using prime::common::format_double;
  table.rows.push_back({name, format_double(d.mean_opp_early, 1),
                        format_double(d.mean_opp_late, 1),
                        format_double(d.mean_freq_late_mhz, 0),
                        format_double(d.late_miss_rate, 3),
                        format_double(d.mean_slack_late, 3)});
}

int run(const prime::common::Config& cfg) {
  using namespace prime;

  const std::vector<std::string> names =
      common::split_spec_list(cfg.get_string(
          "gov.list", "performance,powersave,ondemand,conservative,shen-rl,"
                      "mcdvfs,rtm,rtm-manycore"));
  const std::string workload = cfg.get_string("app.workload", "h264");
  const double fps = cfg.get_double("app.fps", 25.0);
  const std::size_t frames = cfg.get_count("app.frames", 3000);
  std::cout << "Workload " << workload << " (" << frames << " frames @ "
            << fps << " fps)\n\n";

  // One (workload, fps) cell; every run — Oracle included — carries a
  // registry-built TraceSink so the diagnostics can read per-epoch records.
  const sim::SweepResult sweep =
      sim::ExperimentBuilder()
          .workload(workload)
          .fps(fps)
          .frames(frames)
          .trace_seed(cfg.get_count("app.seed", 42, 0))
          .governors(names)
          .telemetry("trace")
          .run();
  sim::print_table(std::cout, sim::make_comparison_table(
                                  "Normalised comparison (Oracle = 1.0)",
                                  sweep.rows()));

  sim::TextTable diag;
  diag.title = "\nDiagnostics (late half of the run = converged behaviour)";
  diag.headers = {"Governor", "Mean OPP 1st half", "Mean OPP 2nd half",
                  "Mean f 2nd half (MHz)", "Late miss rate", "Late mean slack"};
  const auto* oracle_trace =
      sim::find_sink<sim::TraceSink>(sweep.oracle_telemetry.front());
  add_row(diag, "oracle", diagnose(oracle_trace->records()));
  for (const auto& r : sweep.results) {
    add_row(diag, r.run.governor, diagnose(*r.trace()));
  }
  sim::print_table(std::cout, diag);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return prime::front::run_main("governor_comparison", argc, argv, run);
}
