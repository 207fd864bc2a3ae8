#include "fleet/driver.hpp"

#include <sys/types.h>
#include <sys/wait.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "fleet/runner.hpp"
#include "qlib/library.hpp"
#include "qlib/policy.hpp"
#include "sim/report.hpp"

namespace prime::fleet {

namespace {

using common::format_exact;

std::string format_short(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.4g", value);
  return buf;
}

/// True when a sealed, complete summary for exactly this shard of exactly
/// this population already sits at \p path — the shard needs no worker.
bool shard_already_done(const std::string& path, std::uint64_t fingerprint,
                        const Shard& shard) {
  try {
    const ShardSummary s = ShardSummary::load_file(path);
    return s.fingerprint == fingerprint && s.shard == shard && s.complete();
  } catch (...) {
    return false;
  }
}

ShardRunnerOptions worker_options(const FleetOptions& fleet,
                                  std::size_t shard_index,
                                  std::size_t attempt) {
  ShardRunnerOptions opts;
  opts.summary_path = shard_summary_path(fleet.out_dir, shard_index);
  opts.checkpoint_path = shard_checkpoint_path(fleet.out_dir, shard_index);
  opts.checkpoint_every = fleet.checkpoint_every;
  opts.attempt = attempt;
  opts.fail_after_devices = fleet.fail_first_attempt_after;
  if (fleet.dashboard_port_base != 0) {
    opts.dashboard_port =
        static_cast<std::uint16_t>(fleet.dashboard_port_base + shard_index);
  }
  return opts;
}

/// Fold one cell's per-shard policy records into a fleet `.qpol` entry in
/// \p qlib_dir and return its path ("" when the cell's governor has no
/// mergeable learning state, or when no shard recorded a policy — e.g.
/// hand-built summaries). Every shard must agree that the cell is mergeable
/// and on its PolicyShape; each record then becomes a merged entry over its
/// accumulator, and qlib::merge_entries does the fold.
std::string merge_cell_policies(const PopulationSpec& pop,
                                std::size_t cell_index,
                                std::vector<CellPolicy> records,
                                const std::string& qlib_dir) {
  if (records.empty()) return "";
  const std::string where = "fleet merge: cell " + std::to_string(cell_index);
  const CellPolicy& first = records.front();
  for (const CellPolicy& rec : records) {
    if (rec.mergeable != first.mergeable) {
      throw FleetError(where +
                       " has a mergeable policy in some shards but not "
                       "others — shards were run by different builds");
    }
    const std::string skew = first.shape.mismatch(rec.shape);
    if (!skew.empty()) throw FleetError(where + ": " + skew);
  }
  if (!first.mergeable) return "";

  const CellCoords cell = pop.cell(cell_index);
  const qlib::PolicyKey key{
      first.shape.platform_fingerprint,
      qlib::PolicyKey::workload_class_of(cell.workload),
      qlib::PolicyKey::fps_band_of(cell.fps),
      qlib::PolicyKey::canonical_governor_spec(cell.governor)};
  std::vector<qlib::PolicyEntry> entries;
  entries.reserve(records.size());
  for (CellPolicy& rec : records) {
    qlib::PolicyEntry& entry = entries.emplace_back();
    entry.key = key;
    entry.set_shape(rec.shape);
    entry.kind = qlib::PolicyBlobKind::kMerged;
    entry.provenance.epochs_trained = rec.epochs;
    entry.provenance.source_fingerprint = rec.source_fingerprint;
    entry.blob = std::move(rec.accumulator);
  }
  try {
    return qlib::PolicyLibrary(qlib_dir).put(qlib::merge_entries(entries));
  } catch (const qlib::QlibError& e) {
    throw FleetError(where + ": " + e.what());
  }
}

std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return "exit code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return std::string("signal ") + std::to_string(WTERMSIG(status));
  }
  return "unknown status " + std::to_string(status);
}

}  // namespace

FleetDriver::FleetDriver(FleetOptions options) : options_(std::move(options)) {
  if (options_.shards == 0) {
    throw std::invalid_argument("FleetDriver: shards must be >= 1");
  }
  if (options_.out_dir.empty()) {
    throw std::invalid_argument("FleetDriver: out_dir is required");
  }
}

PopulationReport FleetDriver::run(const PopulationSpec& pop) {
  pop.validate();
  if (options_.dashboard_port_base != 0 &&
      (options_.dashboard_port_base > 65535 ||
       options_.shards - 1 > 65535 - options_.dashboard_port_base)) {
    throw std::invalid_argument(
        "fleet: dashboard-port-base " +
        std::to_string(options_.dashboard_port_base) + " + " +
        std::to_string(options_.shards) +
        " shards exceeds port 65535; pick a lower base");
  }
  launches_ = 0;
  retries_ = 0;
  std::filesystem::create_directories(options_.out_dir);
  const ShardPlan plan(pop.device_count(), options_.shards);

  if (options_.workers == 0) {
    // Sequential in-process reference: no fork, so the crash-injection hook
    // (which _Exits the calling process) is deliberately not forwarded.
    for (const Shard& shard : plan.shards()) {
      ShardRunnerOptions opts = worker_options(options_, shard.index, 0);
      opts.fail_after_devices = 0;
      ++launches_;
      (void)run_shard(pop, shard, opts);
    }
  } else {
    run_processes(pop, plan);
  }
  return merge_shards(pop, plan, options_.out_dir);
}

void FleetDriver::run_processes(const PopulationSpec& pop,
                                const ShardPlan& plan) {
  const std::uint64_t fingerprint = pop.fingerprint();

  std::deque<std::size_t> pending;
  for (const Shard& shard : plan.shards()) {
    if (!shard_already_done(shard_summary_path(options_.out_dir, shard.index),
                            fingerprint, shard)) {
      pending.push_back(shard.index);
    }
  }

  std::map<pid_t, std::size_t> running;   // pid -> shard index
  std::map<std::size_t, std::size_t> attempts;  // shard -> launches so far

  const auto kill_all = [&running]() {
    for (const auto& [pid, shard] : running) {
      (void)shard;
      ::kill(pid, SIGKILL);
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    running.clear();
  };

  const auto spawn = [&](std::size_t shard_index) {
    const std::size_t attempt = attempts[shard_index]++;
    ++launches_;
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw FleetError(std::string("fleet: fork failed: ") +
                       std::strerror(errno));
    }
    if (pid == 0) {
      // Child: run the worker in-process and _Exit — the child must never
      // unwind into the parent's stack (gtest, buffered streams, atexit
      // handlers).
      const int code = run_worker(pop, plan.shard(shard_index),
                                  worker_options(options_, shard_index,
                                                 attempt));
      std::_Exit(code);
    }
    running.emplace(pid, shard_index);
  };

  try {
    while (!pending.empty() || !running.empty()) {
      while (!pending.empty() && running.size() < options_.workers) {
        const std::size_t shard_index = pending.front();
        pending.pop_front();
        spawn(shard_index);
      }
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, 0);
      if (pid < 0) {
        if (errno == EINTR) continue;
        throw FleetError(std::string("fleet: waitpid failed: ") +
                         std::strerror(errno));
      }
      const auto it = running.find(pid);
      if (it == running.end()) continue;  // not one of ours
      const std::size_t shard_index = it->second;
      running.erase(it);

      const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      const bool done =
          clean_exit &&
          shard_already_done(shard_summary_path(options_.out_dir, shard_index),
                             fingerprint, plan.shard(shard_index));
      if (done) continue;

      // Failure: a crash, a nonzero exit, or a "clean" exit that left no
      // usable summary (all retried the same way — relaunch resumes from the
      // shard checkpoint when one exists).
      if (attempts[shard_index] > options_.retries) {
        throw FleetError("fleet: shard " + std::to_string(shard_index) +
                         " failed (" + describe_exit(status) + ") after " +
                         std::to_string(attempts[shard_index]) +
                         " attempt(s) — retry budget exhausted");
      }
      ++retries_;
      pending.push_back(shard_index);
    }
  } catch (...) {
    kill_all();
    throw;
  }
}

PopulationReport FleetDriver::merge_shards(const PopulationSpec& pop,
                                           const ShardPlan& plan,
                                           const std::string& out_dir) {
  pop.validate();
  if (plan.device_count() != pop.device_count()) {
    throw FleetError("fleet merge: plan covers " +
                     std::to_string(plan.device_count()) +
                     " devices but the population has " +
                     std::to_string(pop.device_count()));
  }
  const std::uint64_t fingerprint = pop.fingerprint();

  std::map<std::uint64_t, CellStats> merged;
  // Per-cell policy records in shard-index order; the policy fold happens
  // after coverage is validated. The merge is associative and
  // order-invariant, so the emitted `.qpol` bytes are identical under any
  // shard partition — the fleet-merge differential pins this.
  std::map<std::uint64_t, std::vector<CellPolicy>> policies;
  std::uint64_t devices_seen = 0;
  for (const Shard& shard : plan.shards()) {
    const std::string path = shard_summary_path(out_dir, shard.index);
    const ShardSummary s = ShardSummary::load_file(path);
    if (s.fingerprint != fingerprint) {
      throw FleetError("fleet merge: '" + path +
                       "' belongs to a different population (fingerprint "
                       "mismatch)");
    }
    if (s.shard.count != plan.shard_count() ||
        s.shard.device_begin != shard.device_begin ||
        s.shard.device_end != shard.device_end) {
      throw FleetError("fleet merge: '" + path +
                       "' covers devices [" +
                       std::to_string(s.shard.device_begin) + ", " +
                       std::to_string(s.shard.device_end) +
                       ") of a different shard plan (expected [" +
                       std::to_string(shard.device_begin) + ", " +
                       std::to_string(shard.device_end) + "))");
    }
    if (!s.complete()) {
      throw FleetError("fleet merge: '" + path + "' is incomplete (" +
                       std::to_string(s.next_device - s.shard.device_begin) +
                       " of " + std::to_string(s.shard.size()) + " devices)");
    }
    std::uint64_t shard_devices = 0;
    for (const auto& [cell_index, stats] : s.cells) {
      if (cell_index >= pop.cell_count()) {
        throw FleetError("fleet merge: '" + path + "' references cell " +
                         std::to_string(cell_index) + " of a population with " +
                         std::to_string(pop.cell_count()) + " cells");
      }
      shard_devices += stats.devices;
      auto it = merged.find(cell_index);
      if (it == merged.end()) {
        it = merged.emplace(cell_index, CellStats(pop)).first;
      }
      it->second.merge(stats);
    }
    for (const auto& [cell_index, policy] : s.policies) {
      if (cell_index >= pop.cell_count()) {
        throw FleetError("fleet merge: '" + path +
                         "' carries a policy for cell " +
                         std::to_string(cell_index) +
                         " of a population with " +
                         std::to_string(pop.cell_count()) + " cells");
      }
      policies[cell_index].push_back(policy);
    }
    if (shard_devices != shard.size()) {
      throw FleetError("fleet merge: '" + path + "' aggregates " +
                       std::to_string(shard_devices) + " devices but owns " +
                       std::to_string(shard.size()));
    }
    devices_seen += shard_devices;
  }
  if (devices_seen != pop.device_count()) {
    throw FleetError("fleet merge: shards cover " +
                     std::to_string(devices_seen) + " of " +
                     std::to_string(pop.device_count()) + " devices");
  }

  PopulationReport report;
  report.fingerprint = fingerprint;
  report.devices = devices_seen;
  report.rows.reserve(pop.cell_count());
  report.cells.reserve(pop.cell_count());
  for (std::size_t cell_index = 0; cell_index < pop.cell_count();
       ++cell_index) {
    const auto it = merged.find(cell_index);
    if (it == merged.end()) {
      throw FleetError("fleet merge: no devices reported for cell " +
                       std::to_string(cell_index) + " — coverage hole");
    }
    const CellStats& stats = it->second;
    ReportRow row;
    row.cell = pop.cell(cell_index);
    row.devices = stats.devices;
    row.epochs = stats.run.epoch_count;
    row.mean_energy = stats.mean_energy();
    row.mean_miss_rate = stats.mean_miss_rate();
    row.mean_performance = stats.mean_performance();
    row.mean_power = stats.mean_power();
    row.energy_p50 = stats.energy_hist.percentile(50.0);
    row.energy_p95 = stats.energy_hist.percentile(95.0);
    row.energy_p99 = stats.energy_hist.percentile(99.0);
    row.miss_p50 = stats.miss_hist.percentile(50.0);
    row.miss_p95 = stats.miss_hist.percentile(95.0);
    row.miss_p99 = stats.miss_hist.percentile(99.0);
    row.perf_p50 = stats.perf_hist.percentile(50.0);
    row.perf_p95 = stats.perf_hist.percentile(95.0);
    row.perf_p99 = stats.perf_hist.percentile(99.0);
    row.policy_path = merge_cell_policies(
        pop, cell_index, std::move(policies[cell_index]), out_dir + "/qlib");
    report.rows.push_back(std::move(row));
    report.cells.push_back(stats);
  }
  return report;
}

void PopulationReport::write_csv(std::ostream& out) const {
  // Every column below derives from exact merged state (integer counters,
  // ExactSum values, histogram percentiles): the same population produces
  // byte-identical CSV under any shard partition — `cmp` is a valid check.
  out << "governor,workload,fps,devices,epochs,"
         "mean_energy_j,energy_p50,energy_p95,energy_p99,"
         "mean_miss_rate,miss_p50,miss_p95,miss_p99,"
         "mean_perf,perf_p50,perf_p95,perf_p99,mean_power_w\n";
  for (const ReportRow& row : rows) {
    out << row.cell.governor << ',' << row.cell.workload << ','
        << format_exact(row.cell.fps) << ',' << row.devices << ','
        << row.epochs << ',' << format_exact(row.mean_energy) << ','
        << format_exact(row.energy_p50) << ',' << format_exact(row.energy_p95)
        << ',' << format_exact(row.energy_p99) << ','
        << format_exact(row.mean_miss_rate) << ','
        << format_exact(row.miss_p50) << ',' << format_exact(row.miss_p95)
        << ',' << format_exact(row.miss_p99) << ','
        << format_exact(row.mean_performance) << ','
        << format_exact(row.perf_p50) << ',' << format_exact(row.perf_p95)
        << ',' << format_exact(row.perf_p99) << ','
        << format_exact(row.mean_power) << '\n';
  }
}

void PopulationReport::print(std::ostream& out) const {
  sim::TextTable table;
  table.title = "Population report (" + std::to_string(devices) + " devices)";
  table.headers = {"governor", "workload",  "fps",      "devices",
                   "E mean",   "E p95",     "miss mean", "miss p95",
                   "perf mean", "perf p95", "P mean"};
  for (const ReportRow& row : rows) {
    table.rows.push_back({row.cell.governor, row.cell.workload,
                          format_short(row.cell.fps),
                          std::to_string(row.devices),
                          format_short(row.mean_energy),
                          format_short(row.energy_p95),
                          format_short(row.mean_miss_rate),
                          format_short(row.miss_p95),
                          format_short(row.mean_performance),
                          format_short(row.perf_p95),
                          format_short(row.mean_power)});
  }
  sim::print_table(out, table);
}

}  // namespace prime::fleet
