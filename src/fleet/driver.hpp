/// \file driver.hpp
/// \brief Multi-process fleet orchestration: launch shard workers, retry
///        failures from their checkpoints, merge summaries into one
///        distributional population report.
///
/// FleetDriver is the parent-side half of population mode. It partitions the
/// population with a ShardPlan, runs up to `workers` shard workers
/// concurrently, and watches their exits: a worker that fails (nonzero exit
/// or a signal) is relaunched up to `retries` times, resuming from the
/// shard's checkpoint. When every shard's sealed summary exists, the driver
/// merges them — in shard-index order, with CellStats' exact merge — into a
/// PopulationReport whose numbers are bit-identical no matter how the
/// population was sharded or how often workers died.
///
/// Every worker is a forked child that runs run_worker in-process and
/// _exits: a real isolated process for crash and memory purposes, with no
/// dependency on a binary's on-disk location.
///
/// `workers == 0` degenerates to sequential in-process execution of every
/// shard (no fork at all) — the reference the differential tests compare
/// multi-process runs against.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fleet/population.hpp"
#include "fleet/summary.hpp"

namespace prime::fleet {

/// \brief Orchestration options (the population itself is passed to run()).
struct FleetOptions {
  std::size_t shards = 1;       ///< Shard count (>= 1).
  /// Maximum concurrent worker processes; 0 = run every shard sequentially
  /// in-process (no fork).
  std::size_t workers = 1;
  std::size_t retries = 2;      ///< Relaunch budget per shard.
  std::string out_dir = "fleet-out";  ///< Shard artifact directory (created).
  /// Worker-side checkpoint cadence in devices (0 = crash loses the whole
  /// shard attempt).
  std::size_t checkpoint_every = 0;
  /// Test hook, forwarded to every shard's first attempt (see
  /// ShardRunnerOptions::fail_after_devices).
  std::size_t fail_first_attempt_after = 0;
  /// Live progress dashboards: worker for shard i serves snapshots on
  /// loopback port base + i (see ShardRunnerOptions::dashboard_port), so a
  /// driver-side poller can watch every shard in flight. 0 disables. run()
  /// rejects a base whose highest shard port would exceed 65535.
  std::size_t dashboard_port_base = 0;
};

/// \brief One row of the population report: a cell's identity plus the
///        distribution of its devices' outcomes.
struct ReportRow {
  CellCoords cell;              ///< Which (governor, workload, fps) cell.
  std::uint64_t devices = 0;    ///< Devices aggregated.
  std::uint64_t epochs = 0;     ///< Total epochs simulated.
  double mean_energy = 0.0;     ///< Mean per-device energy (J).
  double mean_miss_rate = 0.0;  ///< Mean per-device deadline miss rate.
  double mean_performance = 0.0;///< Mean per-device normalised performance.
  double mean_power = 0.0;      ///< Mean per-device sensor power (W).
  double energy_p50 = 0.0, energy_p95 = 0.0, energy_p99 = 0.0;
  double miss_p50 = 0.0, miss_p95 = 0.0, miss_p99 = 0.0;
  double perf_p50 = 0.0, perf_p95 = 0.0, perf_p99 = 0.0;
  /// Path of the fleet-merged `.qpol` policy written for this cell into
  /// `<out_dir>/qlib`, or "" when the cell's governor has no mergeable
  /// learning state. Deliberately NOT a write_csv column: the CSV stays
  /// byte-identical to earlier versions.
  std::string policy_path;
};

/// \brief The merged population-wide result: one row per cell (cell-index
///        order) plus the merged per-cell statistics for further analysis.
///
/// Every number in the rows derives from exactly-merged state — integer
/// counters, ExactSum accumulators, integer histogram bins — so the rendered
/// CSV is byte-identical across any shard partition of the same population
/// (the property the 1-shard-vs-N-shard differential pins).
struct PopulationReport {
  std::uint64_t fingerprint = 0;   ///< The population's fingerprint.
  std::uint64_t devices = 0;       ///< Total devices simulated.
  std::vector<ReportRow> rows;     ///< Per-cell rows, cell-index order.
  std::vector<CellStats> cells;    ///< Merged stats, same order as rows.

  /// \brief Render as CSV (%.17g — the byte-comparable artifact).
  void write_csv(std::ostream& out) const;
  /// \brief Render as an aligned text table for terminals.
  void print(std::ostream& out) const;
};

/// \brief Launches, supervises and merges shard workers (see file comment).
class FleetDriver {
 public:
  explicit FleetDriver(FleetOptions options);

  /// \brief Run the whole population and return the merged report. Throws
  ///        FleetError when a shard exhausts its retry budget or the merge
  ///        finds missing/foreign/overlapping summaries. Forks one child per
  ///        worker launch when `workers > 0`, so the calling process must be
  ///        single-threaded.
  PopulationReport run(const PopulationSpec& pop);

  /// \brief Worker launches performed by the last run() (includes retries).
  [[nodiscard]] std::size_t launches() const noexcept { return launches_; }
  /// \brief Relaunches after failures during the last run().
  [[nodiscard]] std::size_t retries_used() const noexcept { return retries_; }

  /// \brief Merge the sealed summaries of \p plan's shards from \p out_dir
  ///        (no processes involved): validates fingerprints, completeness
  ///        and exact tiling of the device range, then folds CellStats in
  ///        shard-index order. Exposed for tests and report-only reruns.
  static PopulationReport merge_shards(const PopulationSpec& pop,
                                       const ShardPlan& plan,
                                       const std::string& out_dir);

 private:
  void run_processes(const PopulationSpec& pop, const ShardPlan& plan);

  FleetOptions options_;
  std::size_t launches_ = 0;
  std::size_t retries_ = 0;
};

}  // namespace prime::fleet
