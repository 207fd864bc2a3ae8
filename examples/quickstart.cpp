/// \file quickstart.cpp
/// \brief Minimal end-to-end use of the PRiME-RTM public API.
///
/// Builds the paper's platform (4x A15, 19 OPPs), a 600-frame H.264 workload
/// at 25 fps, runs the proposed many-core Q-learning RTM against the Linux
/// ondemand governor and the offline Oracle through the ExperimentBuilder,
/// and prints a Table-I-style normalised comparison.
///
/// Usage: quickstart [key=value ...]
///   e.g. quickstart app.fps=30 app.frames=1200 app.workload=mpeg4
///        quickstart gov.list=ondemand,rtm(policy=upd),rtm-manycore
///        quickstart app.stream=1 app.frames=100000   (lazy frame source:
///          constant memory at any length — see wl/frame_source.hpp)
#include <iostream>

#include "common/strings.hpp"
#include "hw/platform.hpp"
#include "sim/builder.hpp"
#include "sim/report.hpp"
#include "support/front.hpp"

namespace {

using namespace prime;

int run(const common::Config& cfg) {
  // The hardware the builder will instantiate per run: an ODROID-XU3-like
  // A15 cluster (shown here only for the banner).
  const auto platform = hw::Platform::odroid_xu3_a15();
  std::cout << "Platform: " << platform->name() << " ("
            << platform->opp_table().describe() << ", "
            << platform->cluster().core_count() << " cores)\n\n";

  // Assemble the scenario: one workload, one requirement, three governors.
  // Governor names are registry specs — any `gov.list` entry may carry
  // parameters, e.g. "rtm(policy=upd,alpha=0.2)".
  const sim::Comparison cmp =
      sim::ExperimentBuilder()
          .workload(cfg.get_string("app.workload", "h264"))
          .fps(cfg.get_double("app.fps", 25.0))
          .frames(cfg.get_count("app.frames", 600))
          .trace_seed(cfg.get_count("app.seed", 42, 0))
          .stream(cfg.get_bool("app.stream", false))
          .governors(common::split_spec_list(
              cfg.get_string("gov.list", "ondemand,mcdvfs,rtm-manycore")))
          .compare();

  sim::print_table(std::cout,
                   sim::make_comparison_table(
                       "Normalised energy & performance (Oracle = 1.0)",
                       cmp.rows));

  std::cout << "\nOracle absolute energy: "
            << common::format_double(cmp.oracle_run.total_energy, 2) << " J over "
            << common::format_double(cmp.oracle_run.total_time, 1) << " s\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return prime::front::run_main("quickstart", argc, argv, run);
}
