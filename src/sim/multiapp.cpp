#include "sim/multiapp.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>

#include "sim/epoch_step.hpp"
#include "sim/telemetry.hpp"

namespace prime::sim {
namespace {

void validate(const hw::Platform& platform,
              const std::vector<AppPlacement>& placements,
              const std::vector<std::unique_ptr<gov::Governor>>& governors) {
  if (placements.empty()) {
    throw std::invalid_argument("run_multi_simulation: no applications");
  }
  if (governors.size() != placements.size()) {
    throw std::invalid_argument(
        "run_multi_simulation: one governor per application required");
  }
  std::set<std::size_t> used;
  const std::size_t cores = platform.total_cores();
  for (const auto& p : placements) {
    if (p.app == nullptr || p.cores.empty()) {
      throw std::invalid_argument("run_multi_simulation: empty placement");
    }
    for (const std::size_t c : p.cores) {
      if (c >= cores) {
        throw std::invalid_argument("run_multi_simulation: core out of range");
      }
      if (!used.insert(c).second) {
        throw std::invalid_argument(
            "run_multi_simulation: core assigned twice");
      }
    }
  }
  // The shared decision cadence requires equal rates over the *whole* run,
  // not just frame 0: add_requirement_change can fork the rates mid-run,
  // which this formulation cannot express (DESIGN.md). Checking the full
  // schedules up front fails loudly instead of silently mis-cadencing after
  // the first divergent breakpoint. Schedules may differ in representation
  // (redundant breakpoints), so compare the rate in force at every
  // breakpoint any application declares rather than the breakpoint lists.
  std::set<std::size_t> breakpoints;
  for (const auto& p : placements) {
    for (const auto& [frame, fps] : p.app->requirement_schedule()) {
      (void)fps;
      breakpoints.insert(frame);
    }
  }
  const wl::Application& first = *placements.front().app;
  for (const auto& p : placements) {
    for (const std::size_t frame : breakpoints) {
      const double want = first.requirement_at(frame).fps;
      const double got = p.app->requirement_at(frame).fps;
      if (got != want) {
        throw std::invalid_argument(
            "run_multi_simulation: applications must share the epoch rate "
            "over the whole run — '" + p.app->name() + "' demands " +
            std::to_string(got) + " fps from frame " + std::to_string(frame) +
            " while '" + first.name() + "' demands " + std::to_string(want));
      }
    }
  }
}

}  // namespace

MultiAppResult run_multi_simulation(
    hw::Platform& platform, const std::vector<AppPlacement>& placements,
    const std::vector<std::unique_ptr<gov::Governor>>& governors,
    std::size_t max_frames) {
  MultiAppOptions options;
  options.max_frames = max_frames;
  return run_multi_simulation(platform, placements, governors, options);
}

MultiAppResult run_multi_simulation(
    hw::Platform& platform, const std::vector<AppPlacement>& placements,
    const std::vector<std::unique_ptr<gov::Governor>>& governors,
    const MultiAppOptions& options) {
  validate(platform, placements, governors);
  platform.reset();
  for (const auto& g : governors) g->reset();

  const hw::OppTable& opps = platform.opp_table();
  const std::size_t n_apps = placements.size();

  // Run to the shortest bounded trace (or max_frames if tighter). Streaming
  // applications are unbounded and impose no length of their own; when every
  // application streams, max_frames is the sole run-length authority.
  std::size_t frames = options.max_frames;
  bool any_bounded = false;
  for (const auto& p : placements) {
    if (p.app->streaming()) continue;
    any_bounded = true;
    frames = frames == 0 ? p.app->frame_count()
                         : std::min(frames, p.app->frame_count());
  }
  if (!any_bounded && options.max_frames == 0) {
    throw std::invalid_argument(
        "run_multi_simulation: every application streams an unbounded frame "
        "source; set MultiAppOptions::max_frames to the intended run length");
  }

  MultiAppResult result;
  result.per_app.resize(n_apps);
  result.overridden_epochs.assign(n_apps, 0);

  // One emitter per application stream: the identical emission path the
  // single-app engine drives, so per-app aggregates and attached telemetry
  // can never diverge from the engine's bookkeeping.
  std::vector<RunEmitter> emitters;
  emitters.reserve(n_apps);
  for (std::size_t a = 0; a < n_apps; ++a) {
    RunContext ctx;
    ctx.governor = governors[a]->name();
    ctx.application = placements[a].app->name();
    ctx.frames = frames;
    ctx.app_index = a;
    ctx.app_count = n_apps;
    emitters.emplace_back(result.per_app[a],
                          a < options.app_sinks.size() ? options.app_sinks[a]
                                                       : std::vector<TelemetrySink*>{},
                          ctx);
  }

  std::vector<std::optional<gov::EpochObservation>> last(n_apps);

  // Placements address the board through global core indices; each app's
  // request is arbitrated per V-F domain (max among the apps occupying it —
  // domains hosting no app keep their OPP; on a single-domain board that is
  // the max over every app), each domain runs its own epoch through the
  // engine's shared step, and per-app accounting reads the (domain, local)
  // cores the app owns. That mapping is resolved and every buffer is sized
  // once, so the frame loop neither divides nor allocates.
  const std::size_t domains = platform.domain_count();
  EpochStep step(platform);
  std::vector<common::Cycles*> work(domains);
  std::vector<hw::Cluster*> clusters(domains);
  for (std::size_t d = 0; d < domains; ++d) {
    work[d] = step.buffer(d);
    clusters[d] = &platform.domain(d);
  }
  struct CoreSlot {
    std::size_t domain;
    std::size_t local;
  };
  std::vector<std::size_t> requests(n_apps, 0);
  std::vector<std::size_t> applied(domains, 0);
  std::vector<std::vector<common::Cycles>> app_work(n_apps);
  std::vector<std::vector<common::Cycles>> app_cycles_buf(n_apps);
  std::vector<std::vector<CoreSlot>> app_slots(n_apps);
  // The domains each app occupies (its requests arbitrate only there) and
  // the apps each domain hosts.
  std::vector<std::vector<std::size_t>> app_domains(n_apps);
  std::vector<std::vector<std::size_t>> domain_apps(domains);
  for (std::size_t a = 0; a < n_apps; ++a) {
    app_work[a].resize(placements[a].cores.size(), 0);
    app_cycles_buf[a].resize(placements[a].cores.size(), 0);
    for (const std::size_t c : placements[a].cores) {
      const std::size_t d = platform.domain_of_core(c);
      app_slots[a].push_back({d, platform.local_of_core(c)});
      if (std::find(app_domains[a].begin(), app_domains[a].end(), d) ==
          app_domains[a].end()) {
        app_domains[a].push_back(d);
        domain_apps[d].push_back(a);
      }
    }
  }

  for (std::size_t i = 0; i < frames; ++i) {
    // --- Per-app decisions, arbitrated per domain.
    common::Seconds ovh_total = 0.0;
    for (std::size_t a = 0; a < n_apps; ++a) {
      gov::DecisionContext ctx;
      ctx.epoch = i;
      ctx.period = placements[a].app->deadline_at(i);
      ctx.cores = placements[a].cores.size();
      ctx.opps = &opps;
      ctx.domain = app_slots[a].front().domain;
      ctx.domains = domains;
      requests[a] = governors[a]->decide(ctx, last[a]);
      ovh_total += governors[a]->epoch_overhead();
    }
    for (std::size_t d = 0; d < domains; ++d) {
      if (!domain_apps[d].empty()) {
        std::size_t req = 0;
        for (const std::size_t a : domain_apps[d]) {
          req = std::max(req, requests[a]);
        }
        clusters[d]->set_opp(req);
      }
      applied[d] = clusters[d]->current_opp_index();
    }

    // --- Assemble per-domain work vectors.
    step.clear();
    double mem_weighted = 0.0;
    double demand_total = 0.0;
    for (std::size_t a = 0; a < n_apps; ++a) {
      placements[a].app->core_work_into(i, placements[a].cores.size(),
                                        app_work[a].data());
      for (std::size_t j = 0; j < app_slots[a].size(); ++j) {
        const CoreSlot& slot = app_slots[a][j];
        work[slot.domain][slot.local] = app_work[a][j];
      }
      const double d = static_cast<double>(std::accumulate(
          app_work[a].begin(), app_work[a].end(), common::Cycles{0}));
      mem_weighted += placements[a].app->mem_fraction() * d;
      demand_total += d;
    }
    const double mem_fraction =
        demand_total > 0.0 ? mem_weighted / demand_total : 0.0;

    // All governors' processing runs on the first app's first core, at that
    // core's domain frequency.
    if (ovh_total > 0.0) {
      const CoreSlot& c0 = app_slots.front().front();
      work[c0.domain][c0.local] += common::cycles_at(
          clusters[c0.domain]->current_opp().frequency, ovh_total);
    }

    const common::Seconds period = placements.front().app->deadline_at(i);
    const BoardEpoch& epoch = step.run(work.data(), period, mem_fraction);
    result.total_energy += epoch.energy;
    result.total_time += epoch.window;

    // --- Per-app accounting and observations.
    for (std::size_t a = 0; a < n_apps; ++a) {
      const auto& p = placements[a];
      common::Seconds app_frame_time = 0.0;
      common::Cycles app_cycles = 0;
      for (std::size_t j = 0; j < app_slots[a].size(); ++j) {
        const CoreSlot& slot = app_slots[a][j];
        const hw::EpochScratch& sc = step.scratch(slot.domain);
        // Each core's completion includes its own domain's DVFS stall.
        app_frame_time = std::max(app_frame_time,
                                  sc.core_busy[slot.local] + sc.dvfs_stall);
        app_cycles += sc.core_cycles[slot.local];
        app_cycles_buf[a][j] = sc.core_cycles[slot.local];
      }
      const common::Seconds app_period = p.app->deadline_at(i);
      const bool met = app_frame_time <= app_period;
      const double share =
          epoch.executed == 0 ? 0.0
                              : static_cast<double>(app_cycles) /
                                    static_cast<double>(epoch.executed);
      const std::size_t home = app_slots[a].front().domain;

      EpochRecord rec;
      rec.epoch = i;
      rec.period = app_period;
      rec.opp_index = applied[home];
      rec.frequency = clusters[home]->current_opp().frequency;
      rec.demand = app_cycles;
      rec.executed = app_cycles;
      rec.frame_time = app_frame_time;
      rec.window = epoch.window;
      rec.energy = epoch.energy * share;
      rec.sensor_power = epoch.reading * share;
      rec.temperature = epoch.temperature;
      rec.slack = app_period > 0.0
                      ? (app_period - app_frame_time) / app_period
                      : 0.0;
      rec.deadline_met = met;

      // Overridden when any domain the app occupies ran faster than its own
      // request (it was dragged faster by a co-runner there).
      for (const std::size_t d : app_domains[a]) {
        if (requests[a] < applied[d]) {
          ++result.overridden_epochs[a];
          break;
        }
      }

      if (!last[a]) last[a].emplace();
      gov::EpochObservation& obs = *last[a];
      obs.epoch = i;
      obs.period = app_period;
      obs.frame_time = app_frame_time;
      obs.window = epoch.window;
      obs.total_cycles = app_cycles;
      obs.core_cycles.bind(app_cycles_buf[a].data(), app_cycles_buf[a].size());
      obs.opp_index = rec.opp_index;
      obs.avg_power = rec.sensor_power;
      obs.temperature = epoch.temperature;
      obs.deadline_met = met;

      emitters[a].emit(rec, *governors[a]);
    }
  }
  for (std::size_t a = 0; a < n_apps; ++a) {
    // Per-app share of sensor energy.
    emitters[a].finish(result.per_app[a].total_energy);
  }
  return result;
}

}  // namespace prime::sim
