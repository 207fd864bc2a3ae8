#include "sim/builder.hpp"

#include "common/strings.hpp"
#include "qlib/library.hpp"
#include "qlib/sink.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

namespace prime::sim {
namespace {

/// Run body(0..n-1) on a pool of worker threads. The first exception thrown
/// by any task is rethrown on the caller's thread after the pool drains.
void parallel_for(std::size_t n, std::size_t workers,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  std::size_t count = workers == 0 ? std::thread::hardware_concurrency() : workers;
  if (count == 0) count = 1;
  count = std::min(count, n);
  if (count <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto work = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) threads.emplace_back(work);
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

/// Sanitise a scenario coordinate for spec/path interpolation: spec strings
/// like "rtm(policy=upd)" would otherwise re-enter the parser (or the
/// filesystem) with meaningful punctuation.
std::string sanitize_token(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    out.push_back(keep ? c : '-');
  }
  return out;
}

/// Render fps compactly ("25", "23.98") for interpolation.
std::string format_fps_token(double fps) {
  std::string s = std::to_string(fps);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

/// Expand the {governor}/{workload}/{fps}/{placement}/{cell} placeholders of
/// a telemetry spec with the scenario's coordinates.
std::string expand_spec(std::string spec, const Scenario& scenario) {
  using common::replace_all;
  replace_all(spec, "{governor}", sanitize_token(scenario.governor));
  replace_all(spec, "{workload}", sanitize_token(scenario.workload));
  replace_all(spec, "{fps}", format_fps_token(scenario.fps));
  replace_all(spec, "{placement}", sanitize_token(scenario.placement));
  replace_all(spec, "{cell}", std::to_string(scenario.cell));
  return spec;
}

/// Two sinks streaming into one target interleave and corrupt it — whether
/// the collision is across concurrent runs or across specs within one run.
/// Every file-writing spec (csv, bintrace, checkpoint) therefore needs a
/// path= whose expansion is unique over the whole sweep (stdout — a csv with
/// no path= — is allowed exactly once, and only when a single run executes).
/// Validated up front so the error arrives before any simulation work,
/// naming the colliding target. Malformed specs are not this check's concern
/// — the trial construction in run() reports those with the registry's
/// did-you-mean diagnostics. Nested specs (sample(inner=...)) are not
/// inspected.
void validate_sink_targets(const std::vector<std::string>& specs,
                           const std::vector<Scenario>& runs) {
  std::set<std::string> targets;
  for (const auto& raw : specs) {
    for (const auto& scenario : runs) {
      const common::Spec parsed =
          common::Spec::parse(expand_spec(raw, scenario));
      const std::string& kind = parsed.name();
      if (kind == "dashboard") {
        // Ports collide exactly like file paths: two dashboards bound to one
        // port means the second run's bind fails mid-sweep. port=0 is always
        // unique (each bind picks a fresh ephemeral port). Pathless/invalid
        // specs fall through to run()'s trial construction diagnostics.
        const std::string port = parsed.get_string("port", "");
        if (port.empty() || port == "0") continue;
        if (!targets.insert("port:" + port).second) {
          throw std::invalid_argument(
              "ExperimentBuilder: dashboard port " + port +
              " is bound more than once by this sweep (spec '" + raw +
              "'); make ports unique per run with the {cell} placeholder, "
              "e.g. dashboard(port=81{cell})");
        }
        continue;
      }
      if (kind != "csv" && kind != "bintrace" && kind != "checkpoint") {
        break;  // same name for every expansion
      }
      const std::string path = parsed.get_string("path", "");
      if (path.empty() && kind == "csv" && runs.size() > 1) {
        throw std::invalid_argument(
            "ExperimentBuilder: telemetry spec '" + raw +
            "' would stream " + std::to_string(runs.size()) +
            " concurrent runs to stdout; give csv a path= with {governor}/"
            "{workload}/{fps}/{cell} placeholders");
      }
      if (path.empty() && kind != "csv") {
        continue;  // pathless bintrace/checkpoint fail in run()'s trial build
      }
      const std::string target = path.empty() ? "<stdout>" : path;
      if (!targets.insert(target).second) {
        throw std::invalid_argument(
            "ExperimentBuilder: " + kind + " target '" + target +
            "' is opened more than once by this sweep (spec '" + raw +
            "'); make " + kind + " paths unique per run and per spec with "
            "{governor}/{workload}/{fps}/{cell} placeholders");
      }
    }
  }
}

}  // namespace

const std::vector<EpochRecord>* ScenarioResult::trace() const {
  const auto* hit = find_sink<TraceSink>(telemetry);
  return hit == nullptr ? nullptr : &hit->records();
}

std::vector<NormalizedMetrics> SweepResult::rows() const {
  std::vector<NormalizedMetrics> out;
  out.reserve(results.size());
  for (const auto& r : results) out.push_back(r.row);
  return out;
}

const ScenarioResult* SweepResult::find(const std::string& governor,
                                        const std::string& workload,
                                        double fps) const {
  for (const auto& r : results) {
    // Tolerant fps match: callers may look up with a recomputed rate
    // (e.g. 24000/1001) that is not bit-identical to the one they built with.
    if (r.scenario.governor == governor && r.scenario.workload == workload &&
        std::abs(r.scenario.fps - fps) < 1e-9 * std::max(1.0, fps)) {
      return &r;
    }
  }
  return nullptr;
}

ExperimentBuilder& ExperimentBuilder::platform(const common::Config& cfg) {
  platform_cfg_ = cfg;
  custom_platform_ = true;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::cores(std::size_t n) {
  platform_cfg_.set_int("hw.cores", static_cast<long long>(n));
  custom_platform_ = true;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::clusters(std::size_t n) {
  platform_cfg_.set_int("hw.clusters", static_cast<long long>(n));
  custom_platform_ = true;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::governor(const std::string& spec) {
  governors_.push_back(spec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::governors(
    const std::vector<std::string>& specs) {
  governors_.insert(governors_.end(), specs.begin(), specs.end());
  return *this;
}

ExperimentBuilder& ExperimentBuilder::workload(const std::string& spec) {
  workloads_.push_back(spec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::workloads(
    const std::vector<std::string>& specs) {
  workloads_.insert(workloads_.end(), specs.begin(), specs.end());
  return *this;
}

ExperimentBuilder& ExperimentBuilder::telemetry(const std::string& spec) {
  telemetry_.push_back(spec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::telemetry(
    const std::vector<std::string>& specs) {
  telemetry_.insert(telemetry_.end(), specs.begin(), specs.end());
  return *this;
}

ExperimentBuilder& ExperimentBuilder::telemetry(
    std::initializer_list<std::string> specs) {
  telemetry_.insert(telemetry_.end(), specs.begin(), specs.end());
  return *this;
}

ExperimentBuilder& ExperimentBuilder::checkpoint(const std::string& path,
                                                 std::size_t every) {
  telemetry_.push_back("checkpoint(path=" + path +
                       ",every=" + std::to_string(every) + ")");
  return *this;
}

ExperimentBuilder& ExperimentBuilder::dashboard(const std::string& port,
                                                std::size_t every) {
  telemetry_.push_back("dashboard(port=" + port +
                       ",every=" + std::to_string(every) + ")");
  return *this;
}

ExperimentBuilder& ExperimentBuilder::warm_start(const std::string& dir) {
  warm_start_dir_ = dir;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::publish_policies(const std::string& dir) {
  publish_dir_ = dir;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::fps(double f) {
  fps_.push_back(f);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::fps_set(const std::vector<double>& fs) {
  fps_.insert(fps_.end(), fs.begin(), fs.end());
  return *this;
}

ExperimentBuilder& ExperimentBuilder::placement(const std::string& spec) {
  placements_.push_back(spec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::placements(
    const std::vector<std::string>& specs) {
  placements_.insert(placements_.end(), specs.begin(), specs.end());
  return *this;
}

ExperimentBuilder& ExperimentBuilder::frames(std::size_t n) {
  base_.frames = n;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::stream(bool enabled) {
  base_.stream = enabled;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::trace_seed(std::uint64_t seed) {
  base_.seed = seed;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::governor_seed(std::uint64_t seed) {
  governor_seed_ = seed;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::target_utilisation(double u) {
  base_.target_utilisation = u;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::mem_fraction(double f) {
  base_.mem_fraction = f;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::parallelism(std::size_t workers) {
  parallelism_ = workers;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::oracle_baseline(bool enabled) {
  oracle_baseline_ = enabled;
  return *this;
}

std::vector<double> ExperimentBuilder::fps_list() const {
  return fps_.empty() ? std::vector<double>{base_.fps} : fps_;
}

std::vector<std::string> ExperimentBuilder::placement_list() const {
  return placements_.empty() ? std::vector<std::string>{"packed"}
                             : placements_;
}

std::unique_ptr<hw::Platform> ExperimentBuilder::make_platform() const {
  // Sweep threads build platforms concurrently, and reading a Config records
  // the key: each build reads its own copy.
  return custom_platform_
             ? hw::Platform::from_config(common::Config(platform_cfg_))
             : hw::Platform::odroid_xu3_a15();
}

std::vector<std::unique_ptr<TelemetrySink>> ExperimentBuilder::make_sinks(
    const Scenario& scenario, bool publish) const {
  std::vector<std::unique_ptr<TelemetrySink>> sinks;
  sinks.reserve(telemetry_.size());
  for (const auto& spec : telemetry_) {
    sinks.push_back(make_sink(expand_spec(spec, scenario)));
  }
  if (publish && !publish_dir_.empty()) {
    // Constructed directly, not through a spec string: the key hints are the
    // raw scenario coordinates ("rtm(policy=upd)"), whose punctuation the
    // placeholder sanitiser would destroy.
    auto ql = std::make_unique<qlib::QlibSink>(publish_dir_);
    ql->set_governor_spec(scenario.governor);
    ql->set_workload(scenario.workload);
    ql->set_fps(scenario.fps);
    sinks.push_back(std::move(ql));
  }
  return sinks;
}

std::vector<Scenario> ExperimentBuilder::scenarios() const {
  if (governors_.empty()) {
    throw std::invalid_argument("ExperimentBuilder: no governors added");
  }
  if (workloads_.empty()) {
    throw std::invalid_argument("ExperimentBuilder: no workloads added");
  }
  std::vector<Scenario> out;
  const std::vector<double> rates = fps_list();
  const std::vector<std::string> places = placement_list();
  out.reserve(workloads_.size() * rates.size() * places.size() *
              governors_.size());
  std::size_t cell = 0;
  for (const auto& workload : workloads_) {
    for (const double rate : rates) {
      for (const auto& place : places) {
        for (const auto& governor : governors_) {
          Scenario s;
          s.governor = governor;
          s.workload = workload;
          s.fps = rate;
          s.placement = place;
          s.cell = cell;
          s.app = base_;
          s.app.workload = workload;
          s.app.fps = rate;
          out.push_back(std::move(s));
        }
        ++cell;
      }
    }
  }
  return out;
}

SweepResult ExperimentBuilder::run() const {
  const std::vector<Scenario> matrix = scenarios();
  const std::size_t cell_count =
      workloads_.size() * fps_list().size() * placement_list().size();
  const std::size_t per_cell_runs = governors_.size();

  if (!telemetry_.empty()) {
    // All runs that will carry telemetry: the scenarios plus, when the
    // baseline is on, each cell's Oracle run.
    std::vector<Scenario> runs = matrix;
    if (oracle_baseline_) {
      for (std::size_t c = 0; c < cell_count; ++c) {
        Scenario coords = matrix[c * per_cell_runs];
        coords.governor = "oracle";
        runs.push_back(std::move(coords));
      }
    }
    // Fail fast on malformed sink specs (unknown names, typo'd keys, bad
    // values) before any simulation work, by trial-constructing each spec
    // once — construction is side-effect-free (CsvSink opens its file
    // lazily at run begin), so discarding the trial instance is safe.
    for (const auto& raw : telemetry_) {
      (void)make_sink(expand_spec(raw, runs.front()));
    }
    validate_sink_targets(telemetry_, runs);
  }

  // Phase 1: one task per (workload, fps) cell — generate and calibrate the
  // application, then run the Oracle normalisation baseline on it.
  struct Cell {
    std::optional<wl::Application> app;
    RunResult oracle;
    std::vector<std::unique_ptr<TelemetrySink>> oracle_telemetry;
  };
  std::vector<Cell> cells(cell_count);
  parallel_for(cell_count, parallelism_, [&](std::size_t i) {
    const Scenario& first = matrix[i * per_cell_runs];
    const auto platform = make_platform();
    cells[i].app.emplace(make_application(first.app, *platform));
    if (oracle_baseline_) {
      const auto oracle = make_governor("oracle", governor_seed_);
      Scenario coords = first;
      coords.governor = "oracle";
      cells[i].oracle_telemetry = make_sinks(coords, /*publish=*/false);
      RunOptions opt;
      opt.placement = first.placement;
      // Streaming applications are unbounded: the configured trace length is
      // the run length (a no-op for materialised apps, whose trace is exactly
      // that long already).
      if (cells[i].app->streaming()) opt.max_frames = first.app.frames;
      for (const auto& sink : cells[i].oracle_telemetry) {
        opt.sinks.push_back(sink.get());
      }
      cells[i].oracle = run_simulation(*platform, *cells[i].app, *oracle, opt);
    }
  });

  // Phase 2: one task per scenario, against the shared (const) application
  // and a fresh platform + governor + telemetry set.
  SweepResult sweep;
  sweep.results.resize(matrix.size());
  parallel_for(matrix.size(), parallelism_, [&](std::size_t i) {
    const Scenario& scenario = matrix[i];
    const Cell& cell = cells[scenario.cell];
    const auto platform = make_platform();
    auto governor = make_governor(scenario.governor, governor_seed_);
    ScenarioResult& result = sweep.results[i];
    result.telemetry = make_sinks(scenario, /*publish=*/true);
    RunOptions opt;
    opt.placement = scenario.placement;
    for (const auto& sink : result.telemetry) opt.sinks.push_back(sink.get());
    if (!warm_start_dir_.empty()) {
      const qlib::PolicyLibrary lib(warm_start_dir_);
      const qlib::PolicyKey key = qlib::PolicyKey::make(
          *platform, scenario.workload, scenario.fps, scenario.governor);
      if (!lib.contains(key)) {
        throw qlib::QlibError(
            "ExperimentBuilder: warm-start library '" + warm_start_dir_ +
            "' has no entry for [" + key.canonical() +
            "] — publish one first (publish_policies / qlib_tool merge)");
      }
      opt.warm_start_from = lib.path_for(key);
    }
    // A streaming application's replay cursor is mutable state, so the cell's
    // shared instance cannot serve concurrent scenario runs — copy it
    // instead: the copy shares the already-computed calibration and source
    // factory but streams through a private cursor (no re-probing, and
    // determinism comes from the seed, so the streams are identical).
    std::optional<wl::Application> private_app;
    if (cell.app->streaming()) {
      private_app.emplace(*cell.app);
      opt.max_frames = scenario.app.frames;
    }
    const wl::Application& app = private_app ? *private_app : *cell.app;
    RunResult run = run_simulation(*platform, app, *governor, opt);
    result.scenario = scenario;
    result.row = normalize_against(run, cell.oracle);
    result.run = std::move(run);
    result.governor = std::move(governor);
  });

  if (oracle_baseline_) {
    sweep.oracle_runs.reserve(cells.size());
    sweep.oracle_telemetry.reserve(cells.size());
    for (auto& cell : cells) {
      sweep.oracle_runs.push_back(std::move(cell.oracle));
      sweep.oracle_telemetry.push_back(std::move(cell.oracle_telemetry));
    }
  }
  return sweep;
}

Comparison ExperimentBuilder::compare() const {
  if (workloads_.size() != 1 || fps_list().size() != 1) {
    throw std::invalid_argument(
        "ExperimentBuilder::compare: exactly one workload and one fps "
        "required (use run() for a matrix sweep)");
  }
  if (governors_.empty()) {
    throw std::invalid_argument("ExperimentBuilder: no governors added");
  }
  if (!telemetry_.empty()) {
    throw std::invalid_argument(
        "ExperimentBuilder::compare: telemetry sinks are attached by run(); "
        "use run() for per-epoch observation");
  }
  if (!warm_start_dir_.empty() || !publish_dir_.empty()) {
    throw std::invalid_argument(
        "ExperimentBuilder::compare: warm_start/publish_policies are wired "
        "by run(); use run() for policy-library sweeps");
  }
  if (!placements_.empty()) {
    throw std::invalid_argument(
        "ExperimentBuilder::compare: the placement axis is wired by run(); "
        "use run() for multi-domain sweeps");
  }
  ExperimentSpec spec = base_;
  spec.workload = workloads_.front();
  spec.fps = fps_list().front();
  const auto platform = make_platform();
  const wl::Application app = make_application(spec, *platform);
  return compare_governors(*platform, app, governors_, governor_seed_,
                           app.streaming() ? spec.frames : 0);
}

}  // namespace prime::sim
