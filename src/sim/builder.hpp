/// \file builder.hpp
/// \brief Fluent scenario construction: ExperimentBuilder and the sweep runner.
///
/// The paper's evaluation is a matrix — governors × workloads × frame rates —
/// and every bench used to assemble its corner of that matrix by hand. The
/// builder assembles the whole thing from registry specs:
///
///     const sim::SweepResult sweep = sim::ExperimentBuilder()
///         .workloads({"h264", "fft"})
///         .fps(25.0)
///         .governors({"ondemand", "mcdvfs", "rtm-manycore"})
///         .frames(3000)
///         .run();
///
/// run() executes the matrix through a multi-threaded runner (one fresh
/// platform per scenario, so runs never share mutable hardware state), with
/// each (workload, fps) cell normalised against its own Oracle run — the
/// normalised rows every table in the paper reports. Results are ordered
/// deterministically (workload-major, governor-minor) regardless of thread
/// scheduling, and every construction goes through the governor/workload
/// registries, so parameterised specs like "rtm(policy=upd)" work anywhere.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"

namespace prime::sim {

/// \brief One point of the scenario matrix.
struct Scenario {
  std::string governor;   ///< Governor spec string.
  std::string workload;   ///< Workload spec string.
  double fps = 25.0;      ///< Performance requirement.
  /// Placement policy partitioning work across DVFS domains (sim/placement.hpp).
  /// Only meaningful on multi-domain platforms; "packed" (the default axis)
  /// leaves single-domain sweeps bit-identical to their historical runs.
  std::string placement = "packed";
  std::size_t cell = 0;   ///< Index of the (workload, fps, placement) cell.
  ExperimentSpec app;     ///< Fully resolved application spec.
};

/// \brief Outcome of one scenario.
struct ScenarioResult {
  Scenario scenario;
  RunResult run;
  NormalizedMetrics row;  ///< Normalised against the cell's Oracle run.
  /// The governor instance after its run, for post-run introspection
  /// (Q-table size, exploration counts, predictor statistics) — recover the
  /// concrete type with dynamic_cast.
  std::unique_ptr<gov::Governor> governor;
  /// Telemetry sinks attached to this scenario's run (one fresh instance per
  /// ExperimentBuilder::telemetry() spec, in spec order), kept for post-run
  /// introspection just like the governor.
  std::vector<std::unique_ptr<TelemetrySink>> telemetry;

  /// \brief First attached sink of type T (nullptr when absent).
  template <class T>
  [[nodiscard]] T* sink() const {
    return find_sink<T>(telemetry);
  }
  /// \brief Records of the first attached TraceSink (nullptr when the
  ///        scenario ran without a "trace" spec).
  [[nodiscard]] const std::vector<EpochRecord>* trace() const;
};

/// \brief Outcome of a whole sweep.
struct SweepResult {
  /// Scenario outcomes, workload-major then fps then governor — the order
  /// scenarios() reports, independent of thread scheduling.
  std::vector<ScenarioResult> results;
  /// The Oracle baseline runs, one per (workload, fps) cell; results[i]
  /// was normalised against oracle_runs[results[i].scenario.cell].
  std::vector<RunResult> oracle_runs;
  /// Telemetry attached to each cell's Oracle run (same specs as the
  /// scenarios, with {governor} expanding to "oracle"); indexed like
  /// oracle_runs, empty when no telemetry specs were added.
  std::vector<std::vector<std::unique_ptr<TelemetrySink>>> oracle_telemetry;

  /// \brief The normalised rows in result order (Table-I shape).
  [[nodiscard]] std::vector<NormalizedMetrics> rows() const;
  /// \brief Look up one scenario's outcome (nullptr when absent).
  [[nodiscard]] const ScenarioResult* find(const std::string& governor,
                                           const std::string& workload,
                                           double fps) const;
};

/// \brief Fluent assembly of platform + applications + governor set.
///
/// Every setter returns *this. Governors, workloads and frame rates
/// accumulate; the other knobs apply to every scenario.
class ExperimentBuilder {
 public:
  ExperimentBuilder() = default;

  /// \brief Use a config-driven platform (hw::Platform::from_config keys).
  ExperimentBuilder& platform(const common::Config& cfg);
  /// \brief Shorthand: config-driven platform with `hw.cores` cores.
  ExperimentBuilder& cores(std::size_t n);
  /// \brief Shorthand: config-driven platform with `hw.clusters` independent
  ///        DVFS domains (hw.cores cores *each*; see hw::Platform).
  ExperimentBuilder& clusters(std::size_t n);

  /// \brief Add one governor spec (e.g. "rtm(policy=upd)").
  ExperimentBuilder& governor(const std::string& spec);
  /// \brief Add several governor specs.
  ExperimentBuilder& governors(const std::vector<std::string>& specs);
  /// \brief Add one workload spec (e.g. "h264", "flat(mean=2e8)").
  ExperimentBuilder& workload(const std::string& spec);
  /// \brief Add several workload specs.
  ExperimentBuilder& workloads(const std::vector<std::string>& specs);
  /// \brief Add one frame-rate requirement (default when none added: 25).
  ExperimentBuilder& fps(double f);
  /// \brief Add several frame-rate requirements.
  ExperimentBuilder& fps_set(const std::vector<double>& fs);
  /// \brief Add one placement-policy spec to the scenario axis ("packed",
  ///        "spread", "rect"; default when none added: "packed"). Each
  ///        placement forms its own (workload, fps, placement) cell with its
  ///        own Oracle baseline, so normalised rows always compare runs under
  ///        the same partitioning. Only meaningful with a multi-domain
  ///        platform (clusters(n>1) / hw.clusters); single-domain sweeps
  ///        ignore the policy and stay bit-identical.
  ExperimentBuilder& placement(const std::string& spec);
  /// \brief Add several placement-policy specs.
  ExperimentBuilder& placements(const std::vector<std::string>& specs);

  /// \brief Attach one telemetry sink spec (e.g. "trace", "tail(n=256)",
  ///        "csv(path=out/{governor}-{workload}.csv)") to every scenario of
  ///        the sweep, including each cell's Oracle baseline run. A fresh
  ///        sink is constructed per run, so concurrent scenarios never share
  ///        sink state; the instances are returned in
  ///        ScenarioResult::telemetry / SweepResult::oracle_telemetry. The
  ///        placeholders {governor}, {workload}, {fps}, {placement} and
  ///        {cell} expand to the (sanitised) scenario coordinates before the
  ///        spec is parsed.
  ///        Unknown names/keys throw with did-you-mean suggestions; a csv
  ///        spec whose expanded path= is not unique per run (or absent, i.e.
  ///        stdout) is rejected in multi-run sweeps, since concurrent runs
  ///        streaming into one target would interleave.
  ExperimentBuilder& telemetry(const std::string& spec);
  /// \brief Attach several telemetry sink specs (attachment order preserved).
  ExperimentBuilder& telemetry(const std::vector<std::string>& specs);
  /// \brief Braced-list form: .telemetry({"trace", "tail(n=256)"}). A
  ///        distinct overload on purpose: without it a two-element braced
  ///        list is ambiguous between the string overload (iterator-pair
  ///        constructor) and the vector one.
  ExperimentBuilder& telemetry(std::initializer_list<std::string> specs);

  /// \brief Write a resumable checkpoint per scenario: sugar for
  ///        .telemetry("checkpoint(path=<path>,every=<n>)"). The path
  ///        supports the same {governor}/{workload}/{fps}/{cell}
  ///        placeholders as csv paths, and multi-run sweeps reject
  ///        non-unique expansions (concurrent runs overwriting one
  ///        checkpoint would interleave snapshots of different runs).
  ///        every=0 writes only each run's final checkpoint.
  ExperimentBuilder& checkpoint(const std::string& path,
                                std::size_t every = 0);

  /// \brief Serve live snapshots per scenario: sugar for
  ///        .telemetry("dashboard(port=<port>,every=<n>)"). \p port is a
  ///        string so it can carry the {cell} placeholder — a sweep of
  ///        concurrent runs needs one port per run, e.g. dashboard("81{cell}")
  ///        binds 810, 811, ... per cell; multi-run sweeps reject non-unique
  ///        literal ports up front. "0" binds a fresh ephemeral port per run
  ///        (introspect it via find_sink<DashboardSink> + bound_port()).
  ExperimentBuilder& dashboard(const std::string& port,
                               std::size_t every = 1000);

  /// \brief Warm-start every scenario from the policy library at \p dir:
  ///        each (governor spec, workload, fps) looks up its exact
  ///        qlib::PolicyKey on the sweep's platform and runs with
  ///        RunOptions::warm_start_from pointing at that entry. A scenario
  ///        whose key has no entry fails the sweep with qlib::QlibError
  ///        naming the key (fail-closed: a silent cold start would corrupt a
  ///        warm-vs-cold comparison). Oracle baseline runs never warm-start.
  ExperimentBuilder& warm_start(const std::string& dir);

  /// \brief Publish every scenario's trained governor state into the policy
  ///        library at \p dir at run end (a qlib::QlibSink per scenario,
  ///        keyed by the scenario's governor *spec*, workload and fps, so
  ///        warm_start() on an identical sweep finds the entries). Oracle
  ///        baseline runs do not publish.
  ExperimentBuilder& publish_policies(const std::string& dir);

  /// \brief Trace length in frames (default 3000). For streaming scenarios
  ///        this is the run length (passed to RunOptions::max_frames) and the
  ///        calibration window.
  ExperimentBuilder& frames(std::size_t n);
  /// \brief Stream every workload lazily instead of materialising traces
  ///        (constant memory at any frame count). Individual workload specs
  ///        can override with their own stream= flag — "video(stream=true)"
  ///        opts one workload in, "h264(stream=false)" opts one out.
  ExperimentBuilder& stream(bool enabled = true);
  /// \brief Trace generation seed.
  ExperimentBuilder& trace_seed(std::uint64_t seed);
  /// \brief Seed handed to every governor factory (spec seed= overrides).
  ExperimentBuilder& governor_seed(std::uint64_t seed);
  /// \brief Calibration target utilisation (0 disables calibration).
  ExperimentBuilder& target_utilisation(double u);
  /// \brief Memory-boundedness override (negative = per-workload default).
  ExperimentBuilder& mem_fraction(double f);
  /// \brief Sweep worker threads (0 = hardware concurrency).
  ExperimentBuilder& parallelism(std::size_t workers);
  /// \brief Enable/disable the per-cell Oracle baseline (default on). With it
  ///        off no Oracle simulations run, oracle_runs stays empty and each
  ///        row's normalized_energy is 0 — for sweeps that only read absolute
  ///        metrics or governor introspection, this halves the work.
  ExperimentBuilder& oracle_baseline(bool enabled);

  /// \brief The scenario matrix this builder would run, in result order.
  ///        Throws std::invalid_argument when no governor or workload is set.
  [[nodiscard]] std::vector<Scenario> scenarios() const;

  /// \brief Run the whole matrix through the multi-threaded sweep runner.
  [[nodiscard]] SweepResult run() const;

  /// \brief Single-cell convenience: requires exactly one workload and at
  ///        most one fps, runs every governor against that application and
  ///        returns the classic Comparison (same shape and determinism as
  ///        compare_governors()).
  [[nodiscard]] Comparison compare() const;

 private:
  [[nodiscard]] std::vector<double> fps_list() const;
  [[nodiscard]] std::vector<std::string> placement_list() const;
  [[nodiscard]] std::unique_ptr<hw::Platform> make_platform() const;

  /// \brief Instantiate the telemetry specs for one scenario's coordinates.
  ///        \p publish additionally attaches the publish_policies() qlib
  ///        sink (off for Oracle baseline runs).
  [[nodiscard]] std::vector<std::unique_ptr<TelemetrySink>> make_sinks(
      const Scenario& scenario, bool publish) const;

  common::Config platform_cfg_;
  bool custom_platform_ = false;
  std::vector<std::string> governors_;
  std::vector<std::string> workloads_;
  std::vector<std::string> telemetry_;
  std::string warm_start_dir_;
  std::string publish_dir_;
  std::vector<double> fps_;
  std::vector<std::string> placements_;
  ExperimentSpec base_;
  std::uint64_t governor_seed_ = 0x271828;
  std::size_t parallelism_ = 0;
  bool oracle_baseline_ = true;
};

}  // namespace prime::sim
