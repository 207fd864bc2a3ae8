/// \file manycore_sweep.cpp
/// \brief Scale the cluster from 2 to 16 cores and watch the shared-table
///        many-core RTM keep working — the "many-core systems" claim of the
///        paper's title.
///
/// For each core count, builds a platform with that many cores in one V-F
/// domain, calibrates the same h264 workload to the platform's capacity (so
/// utilisation is comparable), runs the Oracle and the many-core RTM and
/// prints normalised energy, miss rate and the size-independent learning
/// footprint (the Q-table stays |S| x |A| regardless of core count — the
/// paper's scalability argument against per-core-combinatorial tables).
///
/// Usage: manycore_sweep [frames=1500] [seed=42] [stream=0]
///   stream=1 pulls frames lazily from the generator (wl::FrameSource)
///   instead of materialising a trace — same numbers, constant memory.
#include <iostream>

#include "common/strings.hpp"
#include "hw/platform.hpp"
#include "rtm/manycore.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "support/front.hpp"

namespace {

int run(const prime::common::Config& cfg) {
  using namespace prime;

  const std::size_t frames = cfg.get_count("frames", 1500);
  const std::uint64_t seed = cfg.get_count("seed", 42, 0);
  const bool stream = cfg.get_bool("stream", false);

  std::cout << "=== Many-core scaling: shared-Q-table RTM from 2 to 16 cores"
               " ===\n\n";

  sim::TextTable t;
  t.headers = {"Cores", "Q-table (|S| x |A|)", "Norm. energy", "Norm. perf",
               "Miss rate", "Learning epochs"};

  for (const std::size_t cores : {2, 4, 8, 16}) {
    common::Config hw_cfg;
    hw_cfg.set_int("hw.cores", static_cast<long long>(cores));
    const auto platform = hw::Platform::from_config(hw_cfg);

    sim::ExperimentSpec spec;
    spec.workload = "h264";
    spec.fps = 25.0;
    spec.frames = frames;
    spec.seed = seed;
    spec.threads = cores;  // the decoder spawns one worker per core
    spec.stream = stream;
    const wl::Application app = sim::make_application(spec, *platform);

    // A streaming application is unbounded: max_frames is the run length.
    sim::RunOptions opt;
    if (app.streaming()) opt.max_frames = frames;

    const sim::RunResult oracle = [&] {
      const auto g = sim::make_governor("oracle");
      return sim::run_simulation(*platform, app, *g, opt);
    }();

    // Registry-constructed RTM; the concrete type is recovered only for the
    // Q-table introspection columns.
    const auto governor = sim::make_governor("rtm-manycore");
    const sim::RunResult run =
        sim::run_simulation(*platform, app, *governor, opt);
    const sim::NormalizedMetrics m = sim::normalize_against(run, oracle);
    const auto& g = dynamic_cast<const rtm::ManycoreRtmGovernor&>(*governor);

    t.rows.push_back(
        {std::to_string(cores),
         std::to_string(g.q_table()->states()) + " x " +
             std::to_string(g.q_table()->actions()),
         common::format_double(m.normalized_energy, 3),
         common::format_double(m.normalized_performance, 3),
         common::format_double(m.miss_rate, 3),
         std::to_string(g.learning_complete_epoch())});
  }
  sim::print_table(std::cout, t);

  std::cout << "\nThe Q-table is 25 x 19 at every core count: the round-robin"
               " shared-table formulation (Section II-D) decouples learning"
               " complexity from the number of cores.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return prime::front::run_main("manycore_sweep", argc, argv, run);
}
