#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/serial.hpp"
#include "qlib/library.hpp"
#include "sim/checkpoint.hpp"
#include "sim/epoch_step.hpp"
#include "sim/placement.hpp"
#include "sim/run_binding.hpp"
#include "sim/telemetry.hpp"

namespace prime::sim {

void RunResult::accumulate(const EpochRecord& record) {
  ++epoch_count;
  total_energy += record.energy;
  total_time += record.window;
  if (!record.deadline_met) ++deadline_misses;
  performance_sum +=
      record.period > 0.0 ? record.frame_time / record.period : 0.0;
  power_sum += record.sensor_power;
}

RunResult& RunResult::merge(const RunResult& other) {
  if (governor.empty()) governor = other.governor;
  if (application.empty()) application = other.application;
  epoch_count += other.epoch_count;
  total_energy += other.total_energy;
  measured_energy += other.measured_energy;
  total_time += other.total_time;
  deadline_misses += other.deadline_misses;
  performance_sum += other.performance_sum;
  power_sum += other.power_sum;
  return *this;
}

void RunResult::save_state(common::StateWriter& out) const {
  out.size(epoch_count);
  out.f64(total_energy);
  out.f64(measured_energy);
  out.f64(total_time);
  out.size(deadline_misses);
  out.f64(performance_sum);
  out.f64(power_sum);
}

void RunResult::load_state(common::StateReader& in) {
  epoch_count = in.size();
  total_energy = in.f64();
  measured_energy = in.f64();
  total_time = in.f64();
  deadline_misses = in.size();
  performance_sum = in.f64();
  power_sum = in.f64();
}

double RunResult::mean_normalized_performance() const {
  if (epoch_count == 0) return 0.0;
  return performance_sum / static_cast<double>(epoch_count);
}

double RunResult::miss_rate() const {
  if (epoch_count == 0) return 0.0;
  return static_cast<double>(deadline_misses) /
         static_cast<double>(epoch_count);
}

common::Watt RunResult::mean_power() const {
  if (epoch_count == 0) return 0.0;
  return power_sum / static_cast<double>(epoch_count);
}

namespace {

/// Resolve RunOptions::warm_start_from: a `.qpol` path loads directly; a
/// directory is searched by the run's identity and must match exactly one
/// entry (none or several fail closed — point at the file to disambiguate).
qlib::PolicyEntry resolve_warm_start(const std::string& from,
                                     const hw::Platform& platform,
                                     const wl::Application& app,
                                     const gov::Governor& governor) {
  const bool is_file =
      from.size() > 5 && from.compare(from.size() - 5, 5, ".qpol") == 0;
  if (is_file) return qlib::PolicyEntry::load_file(from);
  const qlib::PolicyLibrary lib(from);
  const double fps = common::fps_from_period(app.deadline_at(0));
  auto matches = lib.find(governor.name(), platform.shape_fingerprint(),
                          qlib::PolicyKey::workload_class_of(app.name()),
                          qlib::PolicyKey::fps_band_of(fps));
  if (matches.empty()) {
    throw qlib::QlibError(
        "warm start: no entry in library '" + from + "' matches governor '" +
        governor.name() + "', workload class '" +
        qlib::PolicyKey::workload_class_of(app.name()) + "', fps band " +
        std::to_string(qlib::PolicyKey::fps_band_of(fps)) +
        " on this platform");
  }
  if (matches.size() > 1) {
    throw qlib::QlibError(
        "warm start: " + std::to_string(matches.size()) +
        " entries in library '" + from +
        "' match this run (different governor specs share the display name "
        "'" + governor.name() + "') — pass the .qpol file path instead");
  }
  return std::move(matches.front());
}

}  // namespace

RunResult run_simulation(hw::Platform& platform, const wl::Application& app,
                         gov::Governor& governor, const RunOptions& options) {
  if (!options.warm_start_from.empty() && !options.resume_from.empty()) {
    throw std::invalid_argument(
        "run_simulation: warm_start_from and resume_from are mutually "
        "exclusive — a resume already restores the learned state");
  }
  if (options.block_frames == 0) {
    throw std::invalid_argument(
        "run_simulation: RunOptions::block_frames must be at least 1");
  }
  const std::size_t domains = platform.domain_count();
  if (domains > 1 && !options.resume_from.empty()) {
    // The checkpoint format stores one pending observation; multi-domain runs
    // carry one per domain. Fail loudly rather than resume with domains 1..N
    // silently re-observing from scratch.
    throw std::invalid_argument(
        "run_simulation: resume is not yet supported on multi-domain "
        "platforms (" +
        std::to_string(domains) + " DVFS domains configured)");
  }
  // Every board resolves its placement — a single domain's is the identity —
  // so an unknown name fails before any state is touched.
  const Placement place = make_placement(options.placement, platform, &app);
  // Resume first: the restored state supersedes the reset_* flags (resetting
  // after loading would discard exactly the state the caller asked to keep).
  std::optional<Checkpoint> resume;
  if (!options.resume_from.empty()) {
    resume = Checkpoint::load_file(options.resume_from);
    if (resume->governor != governor.name() ||
        resume->application != app.name()) {
      throw CheckpointError(
          "checkpoint '" + options.resume_from + "': saved for governor '" +
          resume->governor + "' on application '" + resume->application +
          "', cannot resume governor '" + governor.name() +
          "' on application '" + app.name() + "'");
    }
    // Governors size their learning tables lazily from the action/core
    // space; a shape mismatch would silently re-initialise the restored
    // state on the first decision, so reject it up front.
    if (resume->opp_count != platform.opp_table().size() ||
        resume->core_count != platform.total_cores()) {
      throw CheckpointError(
          "checkpoint '" + options.resume_from + "': saved on a platform "
          "with " + std::to_string(resume->opp_count) + " OPPs and " +
          std::to_string(resume->core_count) + " cores, cannot resume on " +
          std::to_string(platform.opp_table().size()) + " OPPs and " +
          std::to_string(platform.total_cores()) + " cores");
    }
    // Same table *size* is not same table: the V-F points themselves shape
    // what the learned state means, so the full shape fingerprint must match.
    if (resume->platform_fingerprint != platform.shape_fingerprint()) {
      throw CheckpointError(
          "checkpoint '" + options.resume_from +
          "': platform shape fingerprint mismatch — saved on a platform with "
          "the same OPP/core counts but different operating points");
    }
    {
      std::istringstream in(resume->governor_state);
      governor.load_state(in);
    }
    {
      std::istringstream in(resume->platform_state);
      platform.load_state(in);
    }
  } else {
    if (options.reset_platform) platform.reset();
    if (options.reset_governor) governor.reset();
    if (!options.warm_start_from.empty()) {
      // After the resets: a warm start is a fresh run that begins having
      // already learned, so everything *except* the transferred knowledge
      // starts from zero.
      const qlib::PolicyEntry entry =
          resolve_warm_start(options.warm_start_from, platform, app, governor);
      if (entry.governor_name != governor.name()) {
        throw qlib::QlibError(
            "warm start '" + options.warm_start_from +
            "': entry trained for governor '" + entry.governor_name +
            "', cannot warm-start '" + governor.name() + "'");
      }
      if (entry.opp_count != platform.opp_table().size() ||
          entry.core_count != platform.total_cores()) {
        throw qlib::QlibError(
            "warm start '" + options.warm_start_from +
            "': entry trained on a platform with " +
            std::to_string(entry.opp_count) + " OPPs and " +
            std::to_string(entry.core_count) + " cores, cannot apply on " +
            std::to_string(platform.opp_table().size()) + " OPPs and " +
            std::to_string(platform.total_cores()) + " cores");
      }
      if (entry.key.platform_fingerprint != platform.shape_fingerprint()) {
        throw qlib::QlibError(
            "warm start '" + options.warm_start_from +
            "': platform shape fingerprint mismatch — the entry was trained "
            "on a platform with the same OPP/core counts but different "
            "operating points");
      }
      const std::string state = entry.state_for(governor);
      std::istringstream in(state);
      governor.load_state(in);
    }
  }

  const hw::OppTable& opps = platform.opp_table();
  auto* clairvoyant = dynamic_cast<gov::Clairvoyant*>(&governor);

  std::size_t frames;
  if (app.streaming()) {
    // An unbounded source has no trace length to fall back on: max_frames is
    // the sole run-length authority, and 0 would mean "run forever".
    if (options.max_frames == 0) {
      throw std::invalid_argument(
          "run_simulation: application '" + app.name() +
          "' streams an unbounded frame source; set RunOptions::max_frames "
          "to the intended run length");
    }
    frames = options.max_frames;
  } else {
    frames = options.max_frames == 0
                 ? app.frame_count()
                 : std::min(options.max_frames, app.frame_count());
  }

  std::size_t start = 0;
  RunResult result;
  if (resume) {
    start = static_cast<std::size_t>(resume->frame_position);
    if (start > frames) {
      throw std::invalid_argument(
          "run_simulation: checkpoint '" + options.resume_from +
          "' is at frame " + std::to_string(start) +
          ", beyond the requested run length of " + std::to_string(frames));
    }
    result = resume->aggregates;
    // Fast-forward the deterministic frame stream to where the run stopped
    // (O(1) for trace-backed sources; generator streams replay their draws).
    app.skip_to(start);
  }

  RunContext ctx;
  ctx.governor = governor.name();
  ctx.application = app.name();
  ctx.frames = frames - start;

  // One pending observation per domain; the checkpoint format carries one,
  // which is why checkpointing is single-domain only (last[0]).
  std::vector<std::optional<gov::EpochObservation>> last(domains);
  if (resume && resume->has_last) last[0] = resume->last;

  // Sinks that act on the run itself take it through bind(). The engine owns
  // the checkpoint *what* (a full-state snapshot over the live loop
  // variables), the sinks own the *when*; only single-domain boards can
  // checkpoint (last[0] above), so others leave the snapshot empty.
  RunBinding binding{platform, app, governor, {}, {}};
  if (domains == 1) {
    binding.snapshot = [&]() {
      Checkpoint ck;
      ck.governor = ctx.governor;
      ck.application = ctx.application;
      ck.opp_count = opps.size();
      ck.core_count = platform.total_cores();
      ck.platform_fingerprint = platform.shape_fingerprint();
      // result accumulates one epoch per emitted record across sessions, so
      // its epoch count *is* the absolute frame position.
      ck.frame_position = result.epoch_count;
      ck.aggregates = result;
      ck.has_last = last[0].has_value();
      if (last[0]) ck.last = *last[0];
      std::ostringstream governor_state;
      governor.save_state(governor_state);
      ck.governor_state = governor_state.str();
      std::ostringstream platform_state;
      platform.save_state(platform_state);
      ck.platform_state = platform_state.str();
      return ck;
    };
  }
  // The binding points into this frame. Unbind every sink on every exit —
  // a sink rejecting the run and an exception mid-run included, both of
  // which skip on_run_end — so no caller-owned sink outlives it bound.
  struct UnbindGuard {
    const std::vector<TelemetrySink*>& sinks;
    ~UnbindGuard() {
      for (TelemetrySink* sink : sinks) sink->bind(nullptr);
    }
  } unbind_guard{options.sinks};
  for (TelemetrySink* sink : options.sinks) sink->bind(&binding);

  RunEmitter emitter(result, options.sinks, ctx);

  // The step's per-domain scratch lives at function scope: the pending
  // observations hold CycleSpan views into it, and the final checkpoint
  // snapshot (emitter.finish -> on_run_end) deep-copies last[0] after the
  // loop — the viewed storage must still be alive.
  EpochStep step(platform);
  wl::FrameBlock block;

  // The placement maps the frame's work slots onto (domain, local core)
  // pairs. The identity placement (every single-domain board) hands each
  // block row straight to domain 0; any other scatters into the step's
  // per-domain buffers.
  const bool identity = place.identity();
  const std::size_t total = platform.total_cores();
  std::vector<common::Cycles*> work(domains);
  std::vector<hw::Cluster*> clusters(domains);
  for (std::size_t d = 0; d < domains; ++d) {
    work[d] = step.buffer(d);
    clusters[d] = &platform.domain(d);
  }
  // The governor's own processing runs where slot 0 was placed — the core
  // hosting the first worker.
  const std::size_t ovh_domain = total == 0 ? 0 : place.slot_domain[0];
  const std::size_t ovh_local = total == 0 ? 0 : place.slot_local[0];

  // Everything observable stays per-epoch — decisions, emission (and with it
  // checkpoint cadence) — so the block size can never shift a snapshot or a
  // record; prefetching frames only moves the stream's replay cursor, which
  // resume re-derives from the frame position anyway.
  EpochRecord rec;
  for (std::size_t i = start; i < frames;) {
    const std::size_t n = std::min(options.block_frames, frames - i);
    app.fill_block(i, n, total, block);
    for (std::size_t b = 0; b < n; ++b, ++i) {
      const common::Seconds period = block.periods[b];
      common::Cycles* row = block.row(b);
      const common::Cycles demand = block.demand[b];

      if (clairvoyant != nullptr) {
        gov::FramePreview preview;
        preview.max_core_cycles =
            total == 0 ? 0 : *std::max_element(row, row + total);
        preview.total_cycles = demand;
        preview.mem_fraction = block.mem_fraction;
        clairvoyant->preview_next_frame(preview);
      }

      if (identity) {
        work[0] = row;
      } else {
        step.clear();
        for (std::size_t j = 0; j < total; ++j) {
          work[place.slot_domain[j]][place.slot_local[j]] += row[j];
        }
      }

      // One decision per domain (shared governor instance: learning state
      // interleaves the per-domain observation streams).
      for (std::size_t d = 0; d < domains; ++d) {
        gov::DecisionContext dctx;
        dctx.epoch = i;
        dctx.period = period;
        dctx.cores = clusters[d]->core_count();
        dctx.opps = &opps;
        dctx.domain = d;
        dctx.domains = domains;
        clusters[d]->set_opp(governor.decide(dctx, last[d]));
      }

      // The governor's processing overhead executes as cycles on that core at
      // its domain's chosen frequency, consuming both time and energy (T_OVH,
      // Section III-D).
      const common::Seconds ovh = governor.epoch_overhead();
      if (total != 0 && ovh > 0.0) {
        work[ovh_domain][ovh_local] += common::cycles_at(
            clusters[ovh_domain]->current_opp().frequency, ovh);
      }

      const BoardEpoch& epoch = step.run(work.data(), period,
                                         block.mem_fraction);
      const hw::Cluster& bottleneck = *clusters[epoch.bottleneck];

      rec.epoch = i;
      rec.period = period;
      rec.opp_index = bottleneck.current_opp_index();
      rec.frequency = bottleneck.current_opp().frequency;
      rec.demand = demand;
      rec.executed = epoch.executed;
      rec.frame_time = epoch.frame_time;
      rec.window = epoch.window;
      rec.energy = epoch.energy;
      rec.sensor_power = epoch.reading;
      rec.temperature = epoch.temperature;
      rec.slack = period > 0.0 ? (period - epoch.frame_time) / period : 0.0;
      rec.deadline_met = epoch.frame_time <= period;

      // Per-domain feedback: each domain's next decision sees its own frame
      // time, cycles and deadline outcome, with the board reading attributed
      // by energy share (every domain shares one sensor; a lone domain's
      // share is the whole reading, r * (e / e) == r).
      for (std::size_t d = 0; d < domains; ++d) {
        const hw::EpochScratch& sc = step.scratch(d);
        if (!last[d]) last[d].emplace();
        gov::EpochObservation& obs = *last[d];
        obs.epoch = i;
        obs.period = period;
        obs.frame_time = sc.frame_time;
        obs.window = sc.window;
        obs.total_cycles = step.executed(d);
        obs.core_cycles.bind(sc.core_cycles.data(), sc.core_cycles.size());
        obs.opp_index = clusters[d]->current_opp_index();
        obs.avg_power = epoch.energy > 0.0
                            ? epoch.reading * (sc.energy / epoch.energy)
                            : epoch.reading / static_cast<double>(domains);
        obs.temperature = sc.temperature;
        obs.deadline_met = sc.deadline_met;
      }

      emitter.emit(rec, governor);
    }
  }
  emitter.finish(platform.power_sensor().measured_energy());
  return result;
}

}  // namespace prime::sim
