/// \file multi_app.cpp
/// \brief The paper's future work, implemented: two applications executing
///        concurrently on disjoint core partitions of the shared-V-F cluster,
///        each managed by its own Q-learning RTM instance.
///
/// An MPEG4 decoder (cores 0-1) runs next to an FFT stream (cores 2-3); the
/// per-application OPP requests are arbitrated by taking the fastest, the
/// only policy that can satisfy both deadlines on one rail. The example
/// reports per-application deadline behaviour, the cluster energy, and how
/// often each application was dragged faster than it asked for.
///
/// Usage: multi_app [frames=600] [fps=25] [seed=3]
#include <iostream>

#include "common/strings.hpp"
#include "hw/platform.hpp"
#include "sim/experiment.hpp"
#include "sim/multiapp.hpp"
#include "sim/report.hpp"
#include "support/front.hpp"

namespace {

int run(const prime::common::Config& cfg) {
  using namespace prime;

  const std::size_t frames = cfg.get_count("frames", 600);
  const double fps = cfg.get_double("fps", 25.0);
  const std::uint64_t seed = cfg.get_count("seed", 3, 0);

  auto platform = hw::Platform::odroid_xu3_a15();

  auto make_app = [&](const char* workload, std::uint64_t s, double util) {
    sim::ExperimentSpec spec;
    spec.workload = workload;
    spec.fps = fps;
    spec.frames = frames;
    spec.seed = s;
    spec.threads = 2;  // each application owns a 2-core partition
    spec.target_utilisation = util;
    return sim::make_application(spec, *platform);
  };
  const wl::Application video = make_app("mpeg4", seed, 0.22);
  const wl::Application fft = make_app("fft", seed + 1, 0.12);

  std::vector<sim::AppPlacement> placements = {{&video, {0, 1}},
                                               {&fft, {2, 3}}};
  std::vector<std::unique_ptr<gov::Governor>> governors;
  governors.push_back(sim::make_governor("rtm", 0xA));
  governors.push_back(sim::make_governor("rtm", 0xB));

  std::cout << "Concurrent applications on " << platform->name() << " @ "
            << fps << " fps (" << frames << " frames):\n"
            << "  cores 0-1: " << video.name() << "\n"
            << "  cores 2-3: " << fft.name() << "\n\n";

  const sim::MultiAppResult r =
      sim::run_multi_simulation(*platform, placements, governors);

  sim::TextTable t;
  t.headers = {"Application", "Norm. perf", "Miss rate", "Energy share (J)",
               "Epochs dragged faster"};
  for (std::size_t a = 0; a < r.per_app.size(); ++a) {
    const auto& run = r.per_app[a];
    t.rows.push_back(
        {run.application,
         common::format_double(run.mean_normalized_performance(), 3),
         common::format_double(run.miss_rate(), 3),
         common::format_double(run.total_energy, 1),
         std::to_string(r.overridden_epochs[a])});
  }
  sim::print_table(std::cout, t);

  std::cout << "\nCluster energy: " << common::format_double(r.total_energy, 1)
            << " J over " << common::format_double(r.total_time, 1)
            << " s. The max-arbiter lets the heavier application set the"
               " rail; the lighter one over-performs for free.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return prime::front::run_main("multi_app", argc, argv, run);
}
