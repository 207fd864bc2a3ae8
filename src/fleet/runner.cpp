#include "fleet/runner.hpp"

#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "common/hash.hpp"
#include "gov/merge.hpp"
#include "sim/dashboard.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"

namespace prime::fleet {

namespace {

/// SSE publication cadence in epochs for a shard's live dashboard.
constexpr std::size_t kDashboardEvery = 1000;

/// A resumed checkpoint plus the live per-cell mergers rebuilt from its
/// policy accumulators — both or neither, so a resumed session's policy fold
/// continues bit-identically to an uninterrupted one.
struct ResumedShard {
  ShardSummary summary;
  std::map<std::uint64_t, std::unique_ptr<gov::StateMerger>> mergers;
};

/// Load a usable resume point, or nullopt for a fresh start. Deliberately
/// swallows every load error: the checkpoint only saves work, and a corrupt
/// or foreign file must never wedge a retried worker.
std::optional<ResumedShard> try_resume(const std::string& checkpoint_path,
                                       std::uint64_t fingerprint,
                                       const Shard& shard,
                                       const PopulationSpec& pop) {
  if (checkpoint_path.empty()) return std::nullopt;
  try {
    ShardSummary ck = ShardSummary::load_file(checkpoint_path);
    if (ck.fingerprint != fingerprint || ck.shard != shard) {
      return std::nullopt;  // different population or partition: start over
    }
    // Rebuild the live mergers from the checkpointed accumulator bytes. Any
    // problem — a cell's governor no longer mergeable, torn accumulator —
    // discards the checkpoint like any other load error.
    ResumedShard resumed;
    for (const auto& [cell, policy] : ck.policies) {
      if (!policy.mergeable) continue;
      auto merger = sim::make_governor(pop.cell(static_cast<std::size_t>(cell))
                                           .governor,
                                       0)
                        ->make_state_merger();
      if (!merger) return std::nullopt;
      merger->add_accumulator(policy.accumulator);
      resumed.mergers.emplace(cell, std::move(merger));
    }
    resumed.summary = std::move(ck);
    return resumed;
  } catch (...) {
    return std::nullopt;
  }
}

}  // namespace

DeviceOutcome run_device_outcome(const PopulationSpec& pop,
                                 const DeviceSpec& dev,
                                 const std::vector<sim::TelemetrySink*>& sinks) {
  // A fresh platform per device: every device is an independent board with
  // its own sensor-noise stream, thermal state and history.
  const auto platform = hw::Platform::odroid_xu3_a15(dev.platform_seed);

  sim::ExperimentSpec spec;
  spec.workload = dev.workload;
  spec.fps = dev.fps;
  spec.frames = pop.frames;
  spec.seed = dev.trace_seed;
  spec.stream = pop.stream;
  spec.target_utilisation = pop.target_utilisation;
  const wl::Application app = sim::make_application(spec, *platform);

  const auto governor = sim::make_governor(dev.governor, dev.governor_seed);

  sim::RunOptions run_opts;
  run_opts.max_frames = pop.frames;
  run_opts.sinks = sinks;
  DeviceOutcome out;
  out.result = sim::run_simulation(*platform, app, *governor, run_opts);
  out.governor_name = governor->name();
  {
    std::ostringstream state(std::ios::binary);
    governor->save_state(state);
    out.governor_state = state.str();
  }
  out.opp_count = platform->opp_table().size();
  out.core_count = platform->total_cores();
  out.platform_fingerprint = platform->shape_fingerprint();
  return out;
}

ShardSummary run_shard(const PopulationSpec& pop, const Shard& shard,
                       const ShardRunnerOptions& opts) {
  pop.validate();
  if (opts.summary_path.empty()) {
    throw std::invalid_argument("run_shard: summary_path is required");
  }
  if (shard.device_end > pop.device_count() ||
      shard.device_begin > shard.device_end) {
    throw std::invalid_argument(
        "run_shard: shard range [" + std::to_string(shard.device_begin) +
        ", " + std::to_string(shard.device_end) + ") exceeds the population (" +
        std::to_string(pop.device_count()) + " devices)");
  }

  const std::uint64_t fingerprint = pop.fingerprint();
  ShardSummary summary;
  std::map<std::uint64_t, std::unique_ptr<gov::StateMerger>> mergers;
  if (auto resumed = try_resume(opts.checkpoint_path, fingerprint, shard, pop)) {
    summary = std::move(resumed->summary);
    mergers = std::move(resumed->mergers);
  } else {
    summary.fingerprint = fingerprint;
    summary.shard = shard;
    summary.next_device = shard.device_begin;
  }
  summary.started_at_device = summary.next_device;

  // One dashboard for the whole shard session: the port stays bound across
  // device runs, runs_completed counts devices finished, and a polling
  // driver sees the in-flight device's live aggregates.
  std::unique_ptr<sim::DashboardSink> dashboard;
  std::vector<sim::TelemetrySink*> sinks;
  if (opts.dashboard_port != 0) {
    dashboard = std::make_unique<sim::DashboardSink>(opts.dashboard_port,
                                                     kDashboardEvery);
    sinks.push_back(dashboard.get());
  }

  // Serialise every live merger into its cell's record, then write. Only
  // saved summaries read the accumulators, and serialising an rtm one costs
  // about as much as a 100-frame device run, so it is not done per device.
  const auto save = [&](const std::string& path) {
    for (const auto& [cell, merger] : mergers) {
      summary.policies.at(cell).accumulator = merger->accumulator();
    }
    summary.save_file(path);
  };

  std::size_t session_devices = 0;
  while (summary.next_device < shard.device_end) {
    const auto index = static_cast<std::size_t>(summary.next_device);
    const DeviceSpec dev = pop.device(index);
    const DeviceOutcome outcome = run_device_outcome(pop, dev, sinks);
    const sim::RunResult& result = outcome.result;

    auto it = summary.cells.find(dev.cell);
    if (it == summary.cells.end()) {
      it = summary.cells.emplace(dev.cell, CellStats(pop)).first;
    }
    it->second.add_device(result);

    // Policy fold. First touch of a cell decides mergeability once (from the
    // cell's governor spec — deterministic, so every shard of a population
    // agrees); after that every device's trained state folds into the cell's
    // merger. The serialised accumulator is refreshed only by save().
    auto pit = summary.policies.find(dev.cell);
    if (pit == summary.policies.end()) {
      CellPolicy policy;
      policy.governor_name = outcome.governor_name;
      policy.opp_count = outcome.opp_count;
      policy.core_count = outcome.core_count;
      policy.platform_fingerprint = outcome.platform_fingerprint;
      auto merger = sim::make_governor(dev.governor, 0)->make_state_merger();
      policy.mergeable = merger != nullptr;
      if (merger) mergers.emplace(dev.cell, std::move(merger));
      pit = summary.policies.emplace(dev.cell, std::move(policy)).first;
    }
    CellPolicy& policy = pit->second;
    if (policy.mergeable) {
      auto& merger = mergers.at(dev.cell);
      merger->add_state(outcome.governor_state);
      policy.epochs += result.epoch_count;
      common::Fnv1a64 h;
      h.u64(summary.next_device);  // population-wide device index
      h.u64(result.epoch_count);
      h.bytes(outcome.governor_state.data(), outcome.governor_state.size());
      policy.source_fingerprint ^= h.value();  // XOR: order-invariant
    }
    ++summary.next_device;
    ++session_devices;

    const bool done = summary.next_device == shard.device_end;
    if (!opts.checkpoint_path.empty() && opts.checkpoint_every > 0 &&
        session_devices % opts.checkpoint_every == 0 && !done) {
      save(opts.checkpoint_path);
    }
    if (opts.fail_after_devices > 0 && opts.attempt == 0 &&
        session_devices == opts.fail_after_devices && !done) {
      // Simulated crash: no summary, no unwinding, no atexit — exactly what
      // an OOM-kill or power loss leaves behind (at most a sealed checkpoint).
      std::_Exit(kWorkerFailureExit);
    }
  }

  save(opts.summary_path);
  return summary;
}

int run_worker(const PopulationSpec& pop, const Shard& shard,
               const ShardRunnerOptions& opts) noexcept {
  try {
    (void)run_shard(pop, shard, opts);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fleet worker (shard " << shard.index << "): " << e.what()
              << "\n";
    return kWorkerFailureExit;
  } catch (...) {
    std::cerr << "fleet worker (shard " << shard.index
              << "): unknown error\n";
    return kWorkerFailureExit;
  }
}

}  // namespace prime::fleet
