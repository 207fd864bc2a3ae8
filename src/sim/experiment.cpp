#include "sim/experiment.hpp"

#include <memory>
#include <utility>

#include "common/spec.hpp"
#include "common/stats.hpp"
#include "gov/registry.hpp"
#include "wl/frame_source.hpp"
#include "wl/registry.hpp"
#include "wl/suites.hpp"

namespace prime::sim {
namespace {

/// Copy \p spec without \p key — the `stream=` flag belongs to the
/// experiment layer, and the workload factories (whose unread keys are
/// treated as typos by the registry) must never see it.
common::Spec spec_without_key(const common::Spec& spec, const std::string& key) {
  common::Config args;
  for (const auto& k : spec.args().keys()) {
    if (k != key) args.set(k, *spec.args().get(k));
  }
  return common::Spec(spec.name(), std::move(args));
}

/// Platform cycle capacity per frame at the fastest OPP.
double frame_capacity(const hw::Platform& platform, double fps) {
  return static_cast<double>(platform.total_cores()) *
         platform.opp_table().max().frequency * (1.0 / fps);
}

}  // namespace

wl::Application make_application(const ExperimentSpec& spec,
                                 const hw::Platform& platform) {
  common::Spec workload_spec = common::Spec::parse(spec.workload);
  bool stream = spec.stream;
  if (workload_spec.args().has("stream")) {
    stream = workload_spec.get_bool("stream", false);
    workload_spec = spec_without_key(workload_spec, "stream");
  }
  std::shared_ptr<const wl::TraceGenerator> generator =
      wl::workload_registry().create(workload_spec);

  wl::Application app = [&] {
    if (!stream) {
      wl::WorkloadTrace trace = generator->generate(spec.frames, spec.seed);
      if (spec.target_utilisation > 0.0) {
        trace = trace.scaled_to_mean(spec.target_utilisation *
                                     frame_capacity(platform, spec.fps));
      }
      return wl::Application(spec.workload, std::move(trace), spec.fps,
                             spec.threads);
    }
    // Streaming mode: calibrate by streaming the same spec.frames-long window
    // the materialised path would scale over — O(1) memory — and apply the
    // resulting factor per frame with the same round-to-nearest, so the
    // streamed demands are identical to the materialised trace's.
    double scale = 1.0;
    if (spec.target_utilisation > 0.0) {
      common::RunningStats stats;
      const std::unique_ptr<wl::FrameSource> probe =
          generator->stream(spec.seed);
      for (std::size_t i = 0; i < spec.frames; ++i) {
        const std::optional<wl::FrameDemand> frame = probe->next();
        if (!frame) break;
        stats.add(static_cast<double>(frame->cycles));
      }
      if (stats.mean() > 0.0) {
        scale = spec.target_utilisation * frame_capacity(platform, spec.fps) /
                stats.mean();
      }
    }
    wl::FrameSourceFactory factory = [generator, seed = spec.seed, scale] {
      std::unique_ptr<wl::FrameSource> source = generator->stream(seed);
      if (scale != 1.0) {
        source =
            std::make_unique<wl::ScaledFrameSource>(std::move(source), scale);
      }
      return source;
    };
    return wl::Application(spec.workload, std::move(factory), spec.fps,
                           spec.threads);
  }();

  double mem = spec.mem_fraction;
  if (mem < 0.0) {
    // Per-workload defaults keyed on the spec's base name: video decode
    // touches DRAM per macroblock; FFT batches largely fit in L2.
    const std::string& base = workload_spec.name();
    if (base == "mpeg4" || base == "h264" || base == "x264" ||
        base == "video") {
      mem = 0.15;
    } else if (base == "fft" || base == "splash-fft") {
      mem = 0.08;
    } else {
      mem = 0.12;
    }
  }
  app.set_mem_fraction(mem);
  return app;
}

std::unique_ptr<gov::Governor> make_governor(const std::string& name,
                                             std::uint64_t seed) {
  return gov::governor_registry().create(name, seed);
}

std::vector<std::string> governor_names() {
  return gov::governor_registry().names();
}

Comparison compare_governors(hw::Platform& platform, const wl::Application& app,
                             const std::vector<std::string>& names,
                             std::uint64_t governor_seed,
                             std::size_t max_frames) {
  RunOptions options;
  options.max_frames = max_frames;
  Comparison cmp;
  {
    const auto oracle = make_governor("oracle", governor_seed);
    cmp.oracle_run = run_simulation(platform, app, *oracle, options);
  }
  cmp.runs.reserve(names.size());
  cmp.rows.reserve(names.size());
  for (const auto& name : names) {
    const auto governor = make_governor(name, governor_seed);
    RunResult run = run_simulation(platform, app, *governor, options);
    cmp.rows.push_back(normalize_against(run, cmp.oracle_run));
    cmp.runs.push_back(std::move(run));
  }
  return cmp;
}

}  // namespace prime::sim
