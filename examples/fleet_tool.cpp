/// \file fleet_tool.cpp
/// \brief Population mode: run a fleet of simulated devices across worker
///        processes and print the merged distributional report.
///
/// Each shard worker is a forked child of this process that runs the shard
/// in-process (fleet::FleetDriver), so there is no separate worker binary to
/// install or locate.
///
/// Usage:
///   fleet_tool governors=ondemand,rtm workloads=h264 fps=25
///              devices-per-cell=8 frames=200 [seed=42] [stream=1]
///              [shards=4] [workers=4] [retries=2] [out=fleet-out]
///              [checkpoint-every=0]   worker checkpoint cadence in devices
///              [fail-after=0]         test hook: kill every shard's first
///                                     attempt after this many devices, so
///                                     the retry resumes from its checkpoint
///              [report=report.csv]    write the population report CSV here
///              [max-rss-mb=0]         fail if peak RSS (self+children)
///                                     exceeds this bound (0 = no check)
///              [dashboard-port-base=0] shard i serves live snapshots on
///                                     loopback port base+i (dash_tool reads
///                                     them; 0 = off)
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>

#include "common/config.hpp"
#include "fleet/driver.hpp"

namespace {

/// Peak resident set in MB across this process and every reaped child —
/// population runs advertise a memory bound covering the whole worker tree.
long peak_rss_mb() {
  long kb = 0;
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) kb = usage.ru_maxrss;
  if (getrusage(RUSAGE_CHILDREN, &usage) == 0) {
    kb = std::max(kb, usage.ru_maxrss);
  }
  return kb / 1024;  // ru_maxrss is KB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prime;

  common::Config cfg;
  cfg.parse_args(argc, argv);

  try {
    const fleet::PopulationSpec pop = fleet::PopulationSpec::from_config(cfg);
    if (pop.governors.empty() || pop.workloads.empty()) {
      std::cerr << "Usage: fleet_tool governors=ondemand,rtm workloads=h264 "
                   "[fps=25] [devices-per-cell=8] [frames=200] [shards=4] "
                   "[workers=4] [retries=2] [out=fleet-out] "
                   "[checkpoint-every=0] [fail-after=0] [report=report.csv] "
                   "[max-rss-mb=0] "
                   "[dashboard-port-base=0]\n";
      return 2;
    }

    fleet::FleetOptions options;
    options.shards = cfg.get_count("shards", 1);
    options.workers = cfg.get_count("workers", options.shards, 0);
    options.retries = cfg.get_count("retries", 2, 0);
    options.out_dir = cfg.get_string("out", "fleet-out");
    options.checkpoint_every = cfg.get_count("checkpoint-every", 0, 0);
    options.fail_first_attempt_after = cfg.get_count("fail-after", 0, 0);
    options.dashboard_port_base = cfg.get_count("dashboard-port-base", 0, 0);

    fleet::FleetDriver driver(options);
    const fleet::PopulationReport report = driver.run(pop);
    report.print(std::cout);
    std::cout << "devices:  " << report.devices << " across "
              << options.shards << " shard(s), " << driver.launches()
              << " worker launch(es), " << driver.retries_used()
              << " retr" << (driver.retries_used() == 1 ? "y" : "ies")
              << "\n";

    const std::string report_path = cfg.get_string("report", "");
    if (!report_path.empty()) {
      std::ofstream out(report_path);
      if (!out) {
        std::cerr << "fleet_tool: cannot open '" << report_path
                  << "' for writing\n";
        return 1;
      }
      report.write_csv(out);
      out.close();
      if (!out) {
        std::cerr << "fleet_tool: writing '" << report_path << "' failed\n";
        return 1;
      }
      std::cout << "report:   " << report_path << "\n";
    }

    const long rss_mb = peak_rss_mb();
    std::cout << "peak rss: " << rss_mb << " MB (self+workers)\n";
    const long long rss_bound = cfg.get_int("max-rss-mb", 0);
    if (rss_bound > 0 && rss_mb > rss_bound) {
      std::cerr << "fleet_tool: peak RSS " << rss_mb << " MB exceeds bound "
                << rss_bound << " MB\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fleet_tool: " << e.what() << "\n";
    return 1;
  }
}
