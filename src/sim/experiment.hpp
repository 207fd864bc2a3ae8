/// \file experiment.hpp
/// \brief High-level experiment assembly: applications, governors, comparisons.
///
/// Benches and examples share this layer: build a named workload calibrated
/// to the platform, build a named governor, run governor sets against the
/// Oracle baseline and emit Table-I-style normalised rows. All construction
/// is seed-deterministic.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gov/governor.hpp"
#include "hw/platform.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "wl/application.hpp"

namespace prime::sim {

/// \brief Specification of one experiment's application.
struct ExperimentSpec {
  /// Workload spec accepted by the workload registry: a registered name,
  /// optionally parameterised — "h264", "flat(mean=2e8,cv=0.1)", ...
  std::string workload = "h264";
  double fps = 25.0;              ///< Performance requirement.
  /// Trace length (materialised mode), or the calibration window length
  /// (streaming mode — also the run length the builder passes to
  /// RunOptions::max_frames for streaming scenarios).
  std::size_t frames = 3000;
  std::uint64_t seed = 42;        ///< Trace generation seed.
  /// Stream frames lazily from the generator instead of materialising a
  /// trace: the application becomes unbounded (constant memory at any run
  /// length) and the engine's max_frames is the run-length authority. The
  /// workload spec flag `stream=true` — e.g. "video(stream=true)",
  /// "h264(stream)" — sets this too, and wins over this field when present.
  /// Streamed demands are frame-for-frame identical to the materialised
  /// trace's for the first `frames` frames (calibration computes the same
  /// scale over the same window, with the same rounding).
  bool stream = false;
  std::size_t threads = 4;  ///< Worker threads per frame.
  /// Target mean platform utilisation at the fastest OPP (0 disables
  /// calibration and uses the generator's own demand level). Calibration
  /// scales the trace so mean demand = target * cores * f_max * Tref,
  /// keeping every workload feasible yet DVFS-interesting at any fps.
  double target_utilisation = 0.45;
  /// Memory-boundedness (stall-time fraction at 1 GHz). Negative selects a
  /// per-workload default: video decode 0.15, FFT 0.08, otherwise 0.12.
  double mem_fraction = -1.0;
};

/// \brief Build the application described by \p spec, calibrated to \p platform.
[[nodiscard]] wl::Application make_application(const ExperimentSpec& spec,
                                               const hw::Platform& platform);

/// \brief Governor factory: a thin shim over gov::governor_registry().
///        Accepts any registered governor spec — a bare name ("ondemand",
///        "rtm-manycore", ...) or a parameterised spec such as
///        "rtm(policy=upd,alpha=0.2)" or "thermal-cap(inner=rtm)". Governors
///        self-register next to their definitions; see governor_names() for
///        the live list. Throws std::invalid_argument (listing the registered
///        names, did-you-mean style) for unknown names.
[[nodiscard]] std::unique_ptr<gov::Governor> make_governor(
    const std::string& name, std::uint64_t seed = 0x271828);

/// \brief All governor names registered with the registry, sorted.
[[nodiscard]] std::vector<std::string> governor_names();

/// \brief Result of a multi-governor comparison (Table I shape).
struct Comparison {
  RunResult oracle_run;                 ///< The normalisation baseline run.
  std::vector<RunResult> runs;          ///< One run per requested governor.
  std::vector<NormalizedMetrics> rows;  ///< Normalised rows, same order.
};

/// \brief Run each named governor on \p app (fresh platform state each time),
///        plus the Oracle, and normalise. The platform is reset between runs.
///        \p max_frames caps every run (0 = whole trace); required > 0 when
///        \p app is streaming (unbounded).
[[nodiscard]] Comparison compare_governors(hw::Platform& platform,
                                           const wl::Application& app,
                                           const std::vector<std::string>& names,
                                           std::uint64_t governor_seed = 0x271828,
                                           std::size_t max_frames = 0);

}  // namespace prime::sim
