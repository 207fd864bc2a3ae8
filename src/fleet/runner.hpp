/// \file runner.hpp
/// \brief The shard worker: simulates one shard's devices and writes the
///        sealed shard summary, checkpointing progress at device boundaries.
///
/// run_shard is the body of a fleet worker process, but it is an ordinary
/// function — tests run it in-process and the driver runs it in a forked
/// child.
///
/// Resume semantics: when a shard checkpoint exists (a mid-shard
/// ShardSummary at checkpoint_path) and matches this population's
/// fingerprint and the shard's device range, the runner continues from its
/// next_device with the checkpoint's partial cell statistics — bit-identical
/// to an uninterrupted run because device seeds and fold order depend only
/// on population-wide device indices. *Any* checkpoint problem (missing,
/// torn, foreign fingerprint, alien range) falls back to a fresh start: the
/// checkpoint is a progress cache, never a correctness input, and a retried
/// worker must always be able to make progress.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/population.hpp"
#include "fleet/summary.hpp"

namespace prime::fleet {

/// \brief Exit code run_worker uses for a failed shard (any thrown error).
inline constexpr int kWorkerFailureExit = 1;

/// \brief Options for one shard worker session.
struct ShardRunnerOptions {
  std::string summary_path;     ///< Where the sealed .fsum lands (required).
  std::string checkpoint_path;  ///< Mid-shard progress file ("" = disabled).
  /// Checkpoint cadence in devices (0 = never mid-shard). The final summary
  /// is always written regardless.
  std::size_t checkpoint_every = 0;
  /// Which launch attempt this is (0 = first). Drivers pass the retry
  /// ordinal so failure injection only fires on the first attempt.
  std::size_t attempt = 0;
  /// Test hook: crash the process (std::_Exit) after this many devices have
  /// been simulated *this session*, but only when attempt == 0. 0 disables.
  /// Exercises the driver's retry + checkpoint-resume path end to end.
  std::size_t fail_after_devices = 0;
  /// Serve live progress snapshots on this loopback port (sim::DashboardSink;
  /// 0 = disabled). One dashboard persists across the shard's device runs, so
  /// a driver polling /snapshot sees the current device's aggregates and a
  /// runs_completed count of devices finished this session.
  std::uint16_t dashboard_port = 0;
};

/// \brief One device's full outcome: the run aggregates plus the trained
///        governor state (what the policy accumulation folds) and the
///        identity it was trained under.
struct DeviceOutcome {
  sim::RunResult result;
  std::string governor_state;  ///< gov::Governor::save_state payload.
  qlib::PolicyShape shape;     ///< Governor and board the state belongs to.
};

/// \brief Simulate one device of \p pop on a fresh platform and return its
///        run aggregates plus the trained governor state — what the shard
///        runner's per-cell policy accumulation consumes. The single
///        definition of "run device i": trajectories depend only on \p dev,
///        never on who is asking, and the state capture happens after the
///        run. \p sinks are observation-only telemetry attached to the
///        device's run (the shard dashboard rides here) — sinks never
///        influence the trajectory, so the bit-identity guarantees hold
///        with or without them.
[[nodiscard]] DeviceOutcome run_device_outcome(
    const PopulationSpec& pop, const DeviceSpec& dev,
    const std::vector<sim::TelemetrySink*>& sinks = {});

/// \brief Run shard \p shard of \p pop: resume from the checkpoint when
///        possible, simulate the remaining devices in index order, write the
///        sealed summary to opts.summary_path, and return it.
ShardSummary run_shard(const PopulationSpec& pop, const Shard& shard,
                       const ShardRunnerOptions& opts);

/// \brief Process-boundary wrapper around run_shard: catches every error,
///        reports it on stderr, and returns an exit code (0 ok,
///        kWorkerFailureExit on failure) instead of throwing. What forked
///        worker children call.
int run_worker(const PopulationSpec& pop, const Shard& shard,
               const ShardRunnerOptions& opts) noexcept;

}  // namespace prime::fleet
