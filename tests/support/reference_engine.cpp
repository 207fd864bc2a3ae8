#include "support/reference_engine.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/telemetry.hpp"
#include "support/kernel_calls.hpp"

namespace prime::sim {

RunResult run_reference_simulation(hw::Platform& platform,
                                   const wl::Application& app,
                                   gov::Governor& governor,
                                   const RunOptions& options) {
  if (platform.domain_count() != 1) {
    throw std::invalid_argument(
        "run_reference_simulation: single-domain platforms only");
  }
  // Checkpoint sinks need no check here: this loop never binds its sinks,
  // so an attached one fails at run begin.
  if (!options.resume_from.empty() || !options.warm_start_from.empty()) {
    throw std::invalid_argument(
        "run_reference_simulation: resume and warm start are engine-only "
        "features");
  }
  if (options.reset_platform) platform.reset();
  if (options.reset_governor) governor.reset();

  hw::Cluster& cluster = platform.cluster();
  const hw::OppTable& opps = platform.opp_table();
  auto* clairvoyant = dynamic_cast<gov::Clairvoyant*>(&governor);

  std::size_t frames;
  if (app.streaming()) {
    if (options.max_frames == 0) {
      throw std::invalid_argument(
          "run_reference_simulation: streaming applications need max_frames");
    }
    frames = options.max_frames;
  } else {
    frames = options.max_frames == 0
                 ? app.frame_count()
                 : std::min(options.max_frames, app.frame_count());
  }

  RunResult result;
  RunContext ctx;
  ctx.governor = governor.name();
  ctx.application = app.name();
  ctx.frames = frames;
  RunEmitter emitter(result, options.sinks, ctx);

  std::optional<gov::EpochObservation> last;
  for (std::size_t i = 0; i < frames; ++i) {
    const common::Seconds period = app.deadline_at(i);
    std::vector<common::Cycles> work =
        testing_support::core_work(app, i, cluster.core_count());
    const common::Cycles demand =
        std::accumulate(work.begin(), work.end(), common::Cycles{0});

    if (clairvoyant != nullptr) {
      gov::FramePreview preview;
      preview.max_core_cycles =
          work.empty() ? 0 : *std::max_element(work.begin(), work.end());
      preview.total_cycles = demand;
      preview.mem_fraction = app.mem_fraction();
      clairvoyant->preview_next_frame(preview);
    }

    gov::DecisionContext dctx;
    dctx.epoch = i;
    dctx.period = period;
    dctx.cores = cluster.core_count();
    dctx.opps = &opps;
    const std::size_t action = governor.decide(dctx, last);
    cluster.set_opp(action);

    // The governor's processing overhead executes as cycles on core 0 at the
    // chosen frequency, consuming both time and energy (T_OVH, Section III-D).
    const common::Seconds ovh = governor.epoch_overhead();
    if (!work.empty() && ovh > 0.0) {
      work[0] += common::cycles_at(cluster.current_opp().frequency, ovh);
    }

    const hw::ClusterEpochResult epoch =
        testing_support::run_epoch(cluster, work, period, app.mem_fraction());
    const common::Watt reading =
        platform.power_sensor().integrate(epoch.avg_power, epoch.window);

    EpochRecord rec;
    rec.epoch = i;
    rec.period = period;
    rec.opp_index = cluster.current_opp_index();
    rec.frequency = cluster.current_opp().frequency;
    rec.demand = demand;
    rec.executed =
        std::accumulate(epoch.core_cycles.begin(), epoch.core_cycles.end(),
                        common::Cycles{0});
    rec.frame_time = epoch.frame_time;
    rec.window = epoch.window;
    rec.energy = epoch.energy;
    rec.sensor_power = reading;
    rec.temperature = epoch.temperature;
    rec.slack = period > 0.0 ? (period - epoch.frame_time) / period : 0.0;
    rec.deadline_met = epoch.deadline_met;

    gov::EpochObservation obs;
    obs.epoch = i;
    obs.period = period;
    obs.frame_time = epoch.frame_time;
    obs.window = epoch.window;
    obs.total_cycles = rec.executed;
    obs.core_cycles = epoch.core_cycles;
    obs.opp_index = rec.opp_index;
    obs.avg_power = reading;
    obs.temperature = epoch.temperature;
    obs.deadline_met = epoch.deadline_met;
    last = std::move(obs);

    emitter.emit(rec, governor);
  }
  emitter.finish(platform.power_sensor().measured_energy());
  return result;
}

}  // namespace prime::sim
