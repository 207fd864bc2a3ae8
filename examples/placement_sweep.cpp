/// \file placement_sweep.cpp
/// \brief Multi-domain sweep driver: domains × placement through the
///        ExperimentBuilder, with partition-validity and determinism gates.
///
/// CI's multi-domain job runs this under a hard RSS bound. For every domain
/// count it:
///   1. builds each placement policy against the actual board topology and
///      application load estimate, and re-validates the partition (exact
///      cover, no overlap, bounds) — the validateWorkloads-style gate,
///      exercised here end to end rather than only in unit tests;
///   2. runs the full placements × governors matrix twice through
///      ExperimentBuilder and requires every RunResult aggregate to be
///      bit-identical between the two sweeps — per-domain decisions, the
///      placement scatter and the sensor integration must all be
///      deterministic, not merely close;
///   3. prints the normalised rows so the effect of a placement policy on
///      energy/miss-rate stays eyeballable from the CI log.
///
/// Usage: placement_sweep [domains=2,4] [placements=packed,spread,rect]
///                        [governors=ondemand,rtm] [workload=h264] [fps=25]
///                        [frames=600] [cores=4] [max-rss-mb=0]
#include <bit>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "hw/platform.hpp"
#include "sim/builder.hpp"
#include "sim/experiment.hpp"
#include "sim/placement.hpp"
#include "support/front.hpp"

namespace {

using namespace prime;

/// The comma-separated counts under \p key, each checked like a single
/// count key: "domains=2,-1" and "domains=x" are rejected naming `domains`.
std::vector<std::size_t> count_list(const common::Config& cfg,
                                    const std::string& key,
                                    const std::string& fallback) {
  std::vector<std::size_t> out;
  for (const auto& token :
       common::split_spec_list(cfg.get_string(key, fallback))) {
    common::Config one;
    one.set(key, token);
    out.push_back(one.get_count(key, 0));
  }
  return out;
}

/// Bitwise equality of two run results' f64 aggregates — "deterministic"
/// here means the exact same bits, not within-epsilon.
bool bit_equal(const sim::RunResult& a, const sim::RunResult& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  return a.epoch_count == b.epoch_count &&
         a.deadline_misses == b.deadline_misses &&
         same(a.total_energy, b.total_energy) &&
         same(a.measured_energy, b.measured_energy) &&
         same(a.total_time, b.total_time) &&
         same(a.performance_sum, b.performance_sum) &&
         same(a.power_sum, b.power_sum);
}

int run(const common::Config& cfg) {
  const auto domains = count_list(cfg, "domains", "2,4");
  const auto placements = common::split_spec_list(
      cfg.get_string("placements", "packed,spread,rect"));
  const auto governors =
      common::split_spec_list(cfg.get_string("governors", "ondemand,rtm"));
  const std::string workload = cfg.get_string("workload", "h264");
  const double fps = cfg.get_double("fps", 25.0);
  const std::size_t frames = cfg.get_count("frames", 600);
  const std::size_t cores = cfg.get_count("cores", 4);
  const double max_rss_mb = cfg.get_double("max-rss-mb", 0.0);

  for (const std::size_t d : domains) {
    // Gate 1: every policy must emit a valid partition of the actual board
    // topology, with the same application-derived load estimate the engine
    // will hand it.
    common::Config hw;
    hw.set_int("hw.clusters", static_cast<long long>(d));
    hw.set_int("hw.cores", static_cast<long long>(cores));
    const auto board = hw::Platform::from_config(hw);
    sim::ExperimentSpec app_spec;
    app_spec.workload = workload;
    app_spec.fps = fps;
    app_spec.frames = frames;
    app_spec.stream = true;
    const wl::Application app = sim::make_application(app_spec, *board);
    std::vector<std::size_t> domain_cores(d);
    for (std::size_t i = 0; i < d; ++i) {
      domain_cores[i] = board->domain(i).core_count();
    }
    for (const std::string& policy : placements) {
      const sim::Placement place =
          sim::make_placement(policy, *board, &app);
      sim::validate_placement(place, domain_cores);  // throws on violation
      std::cout << "domains=" << d << " placement=" << policy
                << ": partition valid (" << place.slots() << " slots)\n";
    }

    // Gate 2: the full matrix, twice; every scenario must reproduce its
    // aggregates bit for bit.
    const auto sweep_once = [&] {
      return sim::ExperimentBuilder()
          .clusters(d)
          .cores(cores)
          .workload(workload)
          .fps(fps)
          .placements(placements)
          .governors(governors)
          .frames(frames)
          .stream(true)
          .run();
    };
    const sim::SweepResult first = sweep_once();
    const sim::SweepResult second = sweep_once();
    if (first.results.size() != second.results.size()) {
      std::cerr << "FAIL: sweep sizes differ between repeats\n";
      return 1;
    }
    for (std::size_t i = 0; i < first.results.size(); ++i) {
      const auto& a = first.results[i];
      const auto& b = second.results[i];
      if (!bit_equal(a.run, b.run)) {
        std::cerr << "FAIL: domains=" << d << " "
                  << a.scenario.governor << "/" << a.scenario.workload
                  << " placement=" << a.scenario.placement
                  << " is not bit-identical across repeated sweeps\n";
        return 1;
      }
    }

    for (const auto& r : first.results) {
      std::cout << "  " << r.scenario.governor << " placement="
                << r.scenario.placement << ": energy "
                << common::format_double(r.run.total_energy, 1)
                << " J, miss rate "
                << common::format_double(r.run.miss_rate(), 4)
                << ", norm energy "
                << common::format_double(r.row.normalized_energy, 3) << "\n";
    }
    std::cout << "domains=" << d << ": " << first.results.size()
              << " scenarios deterministic across repeats\n";
  }

  const double rss = front::peak_rss_mb();
  std::cout << "peak RSS: " << common::format_double(rss, 1) << " MB\n";
  front::check_rss_bound(rss, max_rss_mb);
  std::cout << "placement sweep OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return prime::front::run_main("placement_sweep", argc, argv, run);
}
