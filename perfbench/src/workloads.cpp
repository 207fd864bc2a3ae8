#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sched.h>

#include "common/config.hpp"
#include "common/hash.hpp"
#include "common/http.hpp"
#include "fleet/driver.hpp"
#include "gov/merge.hpp"
#include "probes.hpp"
#include "sim/bintrace.hpp"
#include "sim/builder.hpp"
#include "sim/checkpoint.hpp"
#include "sim/dashboard.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

using namespace prime;
namespace fs = std::filesystem;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "solo-stream", "fleet-short", "sinks-4domain", "paper-sweep"};
  return names;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "sim_frames_per_s", "setup_s",         "cpu_ns_per_frame",
      "peak_rss_mb",      "sim_energy_mj_per_frame", "sim_miss_rate"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      // End-to-end metrics defined on one workload only (0 elsewhere),
      // measured in untraced parts of the traced run.
      "devices_per_s", "scenarios_per_s", "snapshot_p50_ms", "snapshot_p99_ms",
      "bt_read_records_per_s", "paper_energy_err", "failed_ops_ratio",
      // Layers.
      "wl.fill_block_ns_per_frame", "gov.decide_ns_p50", "gov.decide_ns_p99",
      "gov.decide_calls", "rtm.explorations", "rtm.explore_ratio",
      "hw.run_epoch_ns_per_call", "hw.sensor_ns_per_call",
      "sim.engine.self_ns_per_frame", "sim.engine.domain_tax_ns_per_frame",
      "sim.sink.bintrace_ns_per_epoch", "sim.sink.csv_ns_per_row",
      "sim.sink.checkpoint_ns_per_snapshot", "sim.sink.dashboard_ns_per_epoch",
      "sim.sink.bintrace_bytes_per_epoch", "sim.sink.csv_bytes_per_row",
      "sim.checkpoint.bytes", "sim.bintrace.read_ns_per_record",
      "sim.bintrace.to_csv_ns_per_record", "sim.dashboard.snapshot_json_ns",
      "common.http.requests_client", "common.http.requests_served",
      "common.http.connect_failures", "hw.platform_build_us",
      "wl.make_application_us", "gov.make_governor_us", "sim.sink.open_us",
      "fleet.device_run_us", "fleet.save_state_us", "qlib.merge_add_us",
      "fleet.merge_shards_ms", "fleet.launches", "fleet.retries_used",
      "fleet.shard_wait_ms", "sim.builder.scenario_ms_p50",
      "sim.builder.scenario_ms_p99", "sim.builder.thread_busy_ratio",
      "sim.builder.oracle_share", "bench.trace_overhead_ratio"};
  return names;
}

namespace {

bool tiny(const Options& opt) { return opt.size == "tiny"; }

/// Hot-path spans are taken every Nth decide() call; N is odd so that on a
/// 4-domain board every domain's decisions are sampled.
constexpr std::size_t kSampleEvery = 61;

/// Fresh set-ups timed before the first job and before every job after it;
/// setup_s is the median of them all.
constexpr std::size_t kSetupFirst = 11;
constexpr std::size_t kSetupPerJob = 3;

/// Repeat \p rep until \p budget_s is spent: at least \p min_reps, and no
/// rep is started that the time left cannot hold.
void timed_reps(double budget_s, std::size_t min_reps,
                const std::function<void(std::size_t)>& rep) {
  const auto start = Clock::now();
  double last = 0.0;
  for (std::size_t k = 0;; ++k) {
    const double used = seconds_since(start);
    if (k >= min_reps && used + last > budget_s) break;
    const auto t0 = Clock::now();
    rep(k);
    last = seconds_since(t0);
  }
}

/// Pins the calling thread to CPUs of the set it was allowed at
/// construction, rotating per call, and restores that set on release.
/// A job otherwise stays on whichever CPUs the scheduler picked for the
/// whole run; on a shared host those CPUs' neighbours then decide the run's
/// speed. Rotating makes every run sample every CPU.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Give the thread back every CPU it was allowed at construction.
  void release() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }

  /// Pin to the CPU the thread is running on now.
  void pin_here() {
    const int cpu = sched_getcpu();
    if (cpus_.empty() || cpu < 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
  }

  /// Pin to \p width consecutive allowed CPUs starting at the k-th. Threads
  /// and processes started while pinned inherit the set.
  void pin(std::size_t k, std::size_t width = 1) {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t j = 0; j < std::min(width, cpus_.size()); ++j) {
      CPU_SET(cpus_[(k + j) % cpus_.size()], &set);
    }
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Stage times of one device set-up, microseconds.
struct SetupTimes {
  double platform_us = 0.0;
  double app_us = 0.0;
  double gov_us = 0.0;
  double total_s = 0.0;
};

double us_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e3;
}

/// One simulated device: board, application and governor.
struct Device {
  std::unique_ptr<hw::Platform> platform;
  std::optional<wl::Application> app;
  std::unique_ptr<gov::Governor> governor;
};

/// A board with \p domains DVFS domains and sensor seed \p seed.
std::unique_ptr<hw::Platform> make_board(std::size_t domains,
                                         std::uint64_t seed) {
  if (domains == 1) return hw::Platform::odroid_xu3_a15(seed);
  common::Config cfg;
  cfg.set_int("hw.clusters", static_cast<long long>(domains));
  cfg.set_int("hw.sensor_seed", static_cast<long long>(seed));
  return hw::Platform::from_config(cfg);
}

Device build_device(std::size_t domains, const sim::ExperimentSpec& spec,
                    const std::string& governor, std::uint64_t gov_seed,
                    SetupTimes* times) {
  Device d;
  std::int64_t t = now_ns();
  d.platform = make_board(domains, spec.seed);
  if (times != nullptr) times->platform_us = us_since(t);
  t = now_ns();
  d.app.emplace(sim::make_application(spec, *d.platform));
  if (times != nullptr) times->app_us = us_since(t);
  t = now_ns();
  d.governor = sim::make_governor(governor, gov_seed);
  if (times != nullptr) times->gov_us = us_since(t);
  return d;
}

/// Times fresh set-ups, rotating over the CPUs, and reports their medians.
/// Samples are taken before the first job and again before every job, so
/// they spread over the whole run instead of the first few milliseconds:
/// on a shared host the speed of the same code drifts within a run.
class SetupSampler {
 public:
  explicit SetupSampler(std::function<SetupTimes()> one) : one_(std::move(one)) {
    take(kSetupFirst);
  }

  /// Time \p n fresh set-ups.
  void take(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      rotation_.pin(taken_++);
      const auto t0 = Clock::now();
      SetupTimes s = one_();
      s.total_s = seconds_since(t0);
      total_.push_back(s.total_s);
      platform_.push_back(s.platform_us);
      app_.push_back(s.app_us);
      gov_.push_back(s.gov_us);
    }
    rotation_.release();
  }

  /// Per-stage medians and the median total of every sample so far.
  [[nodiscard]] SetupTimes median() const {
    SetupTimes out;
    out.total_s = perfbench::median(total_);
    out.platform_us = perfbench::median(platform_);
    out.app_us = perfbench::median(app_);
    out.gov_us = perfbench::median(gov_);
    return out;
  }

 private:
  std::function<SetupTimes()> one_;
  CpuRotation rotation_;
  std::size_t taken_ = 0;
  std::vector<double> total_, platform_, app_, gov_;
};

/// Output-digest checks over the reps of a job that cycles through
/// \p devices sub-seeds: a rep must repeat the digest of the first rep on
/// the same sub-seed, and the combined digest of the first cycle must match
/// the recorded one when the book has this workload, size and seed.
class DigestCheck {
 public:
  DigestCheck(const Options& opt, Result& r, std::size_t devices)
      : opt_(opt), r_(r), devices_(devices) {}

  void rep(std::size_t k, std::uint64_t digest) {
    const std::size_t j = k % devices_;
    if (k >= devices_) {
      r_.ledger.check(digest == first_[j],
                      opt_.workload + ": rep " + std::to_string(k) +
                          " digest " + hex64(digest) + " differs from rep " +
                          std::to_string(j));
      return;
    }
    first_.push_back(digest);
    if (first_.size() < devices_) return;
    common::Fnv1a64 h;
    for (const std::uint64_t d : first_) h.u64(d);
    r_.digest = hex64(h.value());
    if (opt_.digests == nullptr) return;
    if (const std::string* want =
            opt_.digests->find(opt_.workload, opt_.size, opt_.seed)) {
      r_.ledger.check(*want == r_.digest, opt_.workload + ": output digest " +
                                              r_.digest +
                                              " differs from the recorded " +
                                              *want);
      r_.info["digest_recorded"] = 1.0;
    }
  }

 private:
  const Options& opt_;
  Result& r_;
  std::size_t devices_;
  std::vector<std::uint64_t> first_;
};

/// The seed of sub-device \p j of a job run with workload seed \p seed.
std::uint64_t sub_seed(std::uint64_t seed, std::size_t j) {
  return seed * 16 + j;
}

/// Simulated totals over the first cycle of devices.
struct SimTotals {
  double energy_j = 0.0;
  double misses = 0.0;
  double frames = 0.0;
  void add(const sim::RunResult& run) {
    energy_j += run.total_energy;
    misses += static_cast<double>(run.deadline_misses);
    frames += static_cast<double>(run.epoch_count);
  }
};

void check_epochs(Result& r, const std::string& what, std::uint64_t got,
                  std::uint64_t want) {
  r.ledger.check(got == want, what + " executed " + std::to_string(got) +
                                  " of " + std::to_string(want) + " epochs");
}

/// Simulated-output metrics of a job: energy per frame (mJ) and miss rate.
void sim_metrics(Result& r, double energy_j, double misses, double frames) {
  r.metrics["sim_energy_mj_per_frame"] = energy_j * 1e3 / frames;
  r.metrics["sim_miss_rate"] = misses / frames;
}

/// The timed phase of a run: every job's frames, wall time and CPU time,
/// and, for jobs timed through a PieceClock, every piece's.
struct Phase {
  double frames = 0.0;
  double wall_s = 0.0;
  double cpu_ns = 0.0;
  std::vector<double> job_fps;
  std::vector<double> piece_ns_per_frame;      ///< Wall.
  std::vector<double> piece_cpu_ns_per_frame;  ///< Process CPU.

  void add(double job_frames, double job_wall_s, double job_cpu_ns) {
    frames += job_frames;
    wall_s += job_wall_s;
    cpu_ns += job_cpu_ns;
    job_fps.push_back(job_frames / job_wall_s);
  }
  /// The pieces \p clock timed, each \p frames_per_piece frames long.
  void add_pieces(const PieceClock& clock, double frames_per_piece) {
    for (const double ns : clock.piece_wall_ns()) {
      piece_ns_per_frame.push_back(ns / frames_per_piece);
    }
    for (const double ns : clock.piece_cpu_ns()) {
      piece_cpu_ns_per_frame.push_back(ns / frames_per_piece);
    }
  }
};

/// Percentile of the per-piece ns/frame that the host metrics of a piece-
/// timed workload report.
constexpr double kPiecePercentile = 1.0;

/// Host-side metrics of the timed phase. For a workload whose jobs are timed
/// in pieces (solo-stream, sinks-4domain) they are those of its fast
/// pieces: the kPiecePercentile-th percentile of the pieces' ns/frame. On
/// the shared host the same piece of work runs at one of two speeds about
/// 1.8x apart, as the host's other tenants leave the core alone or share
/// it, and the share of slow pieces drifts from minute to minute; a phase
/// total or a median measures that share, while fast pieces turn up in
/// every run. fleet-short and paper-sweep run on two CPUs at once (forked
/// shard workers, builder threads), which averages the two speeds within
/// a job; for them the phase totals were the steadier figures, so their
/// metrics are ratios over the whole phase: total frames over total job
/// seconds, total CPU time over total frames. Phase totals and piece
/// medians are kept as side data.
void host_metrics(Result& r, const Phase& p) {
  const double phase_fps = p.frames / p.wall_s;
  const double phase_cpu = p.cpu_ns / p.frames;
  r.metrics["sim_frames_per_s"] = phase_fps;
  r.metrics["cpu_ns_per_frame"] = phase_cpu;
  r.info["reps"] = static_cast<double>(p.job_fps.size());
  r.info["phase_sim_frames_per_s"] = phase_fps;
  r.info["phase_cpu_ns_per_frame"] = phase_cpu;
  r.info["job_sim_frames_per_s_p50"] = median(p.job_fps);
  if (p.piece_ns_per_frame.empty()) return;
  r.metrics["sim_frames_per_s"] =
      1e9 / percentile(p.piece_ns_per_frame, kPiecePercentile);
  r.metrics["cpu_ns_per_frame"] =
      percentile(p.piece_cpu_ns_per_frame, kPiecePercentile);
  r.info["pieces"] = static_cast<double>(p.piece_ns_per_frame.size());
  r.info["piece_sim_frames_per_s_p50"] = 1e9 / median(p.piece_ns_per_frame);
  r.info["piece_cpu_ns_per_frame_p50"] = median(p.piece_cpu_ns_per_frame);
}

/// Learner exploration count of \p g or the governor it wraps; 0 for
/// governors that do not learn.
std::uint64_t explorations_of(const gov::Governor& g) {
  const gov::Governor* cur = &g;
  while (cur != nullptr) {
    if (const auto* learner = dynamic_cast<const gov::Learner*>(cur)) {
      return learner->exploration_count();
    }
    cur = cur->inner_governor();
  }
  return 0;
}

bool is_learner(const gov::Governor& g) {
  const gov::Governor* cur = &g;
  while (cur != nullptr) {
    if (dynamic_cast<const gov::Learner*>(cur) != nullptr) return true;
    cur = cur->inner_governor();
  }
  return false;
}

/// Hot-path layer costs measured on one or more traced device runs.
struct HotPath {
  std::vector<double> decide_ns;  ///< Sampled decide() durations.
  std::uint64_t decide_calls = 0;
  std::uint64_t learner_calls = 0;
  std::uint64_t explorations = 0;
  LayerReplay replay;
  double run_ns = 0.0;            ///< run_simulation wall time.
  std::uint64_t frames = 0;

  void add_replay(const LayerReplay& r) {
    replay.frames += r.frames;
    replay.epoch_calls += r.epoch_calls;
    replay.sensor_calls += r.sensor_calls;
    replay.fill_ns += r.fill_ns;
    replay.epoch_ns += r.epoch_ns;
    replay.sensor_ns += r.sensor_ns;
  }
};

/// Per-layer metrics derived from the hot-path probes. The engine's self
/// time is the traced sink-free runs' ns/frame minus the stages, all taken
/// in the same stretch of time so host drift cancels.
void hot_path_metrics(Result& r, const HotPath& hp, std::size_t domains) {
  const double clock = clock_pair_ns();
  const double engine_ns_per_frame =
      hp.frames ? hp.run_ns / static_cast<double>(hp.frames) : 0.0;
  const double fill =
      hp.replay.frames ? hp.replay.fill_ns / static_cast<double>(hp.replay.frames)
                       : 0.0;
  const double epoch = hp.replay.epoch_calls
                           ? hp.replay.epoch_ns /
                                 static_cast<double>(hp.replay.epoch_calls)
                           : 0.0;
  const double sensor = hp.replay.sensor_calls
                            ? hp.replay.sensor_ns /
                                  static_cast<double>(hp.replay.sensor_calls)
                            : 0.0;
  double decide_mean = 0.0;
  if (!hp.decide_ns.empty()) {
    decide_mean = std::accumulate(hp.decide_ns.begin(), hp.decide_ns.end(),
                                  0.0) /
                  static_cast<double>(hp.decide_ns.size());
    // A sampled span includes one clock read; take it back out.
    decide_mean = std::max(0.0, decide_mean - clock);
  }
  r.metrics["wl.fill_block_ns_per_frame"] = fill;
  r.metrics["gov.decide_ns_p50"] = percentile(hp.decide_ns, 50.0);
  r.metrics["gov.decide_ns_p99"] = percentile(hp.decide_ns, 99.0);
  r.metrics["gov.decide_calls"] = static_cast<double>(hp.decide_calls);
  r.metrics["rtm.explorations"] = static_cast<double>(hp.explorations);
  r.metrics["rtm.explore_ratio"] =
      hp.learner_calls ? static_cast<double>(hp.explorations) /
                             static_cast<double>(hp.learner_calls)
                       : 0.0;
  r.metrics["hw.run_epoch_ns_per_call"] = epoch;
  r.metrics["hw.sensor_ns_per_call"] = sensor;
  const double d = static_cast<double>(domains);
  r.metrics["sim.engine.self_ns_per_frame"] =
      engine_ns_per_frame - fill - d * decide_mean - d * epoch - sensor;
  r.info["decide_samples"] = static_cast<double>(hp.decide_ns.size());
  r.info["clock_pair_ns"] = clock;
}

void setup_metrics(Result& r, const SetupTimes& s) {
  r.metrics["hw.platform_build_us"] = s.platform_us;
  r.metrics["wl.make_application_us"] = s.app_us;
  r.metrics["gov.make_governor_us"] = s.gov_us;
}

/// Fill every per-layer metric the workload did not set with 0 and finish
/// the traced result: trace overhead and the failed-ops ratio. The overhead
/// compares whole-run rates: the traced run's against the untraced phase
/// total (not the fast-piece rate).
void finish_traced(Result& r, double untraced_fps, double traced_fps) {
  r.metrics["bench.trace_overhead_ratio"] =
      untraced_fps > 0.0 ? traced_fps / untraced_fps : 0.0;
  r.info["untraced_sim_frames_per_s"] = untraced_fps;
  r.info["traced_sim_frames_per_s"] = traced_fps;
  for (const std::string& name : per_layer_names()) {
    r.metrics.emplace(name, 0.0);
  }
}

// --- solo-stream -------------------------------------------------------------

sim::ExperimentSpec stream_spec(std::uint64_t seed) {
  sim::ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = 25.0;
  spec.stream = true;
  spec.seed = seed;
  return spec;
}

/// One traced device run: a TimedGovernor around \p d's governor records
/// every decision; afterwards the frame-source and hardware layers are
/// replayed alone over the same frames and decisions on a fresh device
/// (\p board_seed is the sensor seed \p d's board was built with). The
/// replay must reproduce the run's model and sensor energy bit for bit, a
/// check in \p ledger. Returns the traced run's wall seconds.
double traced_device_run(Device& d, std::size_t domains,
                         std::uint64_t board_seed,
                         const sim::ExperimentSpec& spec,
                         const std::string& placement, std::size_t frames,
                         std::vector<sim::TelemetrySink*> sinks,
                         Tracer& tracer, std::uint32_t parent,
                         std::size_t sample_every, HotPath& hp,
                         Ledger& ledger, sim::RunResult* out_result) {
  // The run and its replay share one CPU, so the stages and the total they
  // are subtracted from are timed on the same core.
  CpuRotation rotation;
  rotation.pin_here();
  TimedGovernor timed(*d.governor, &tracer, parent, sample_every, true);
  sim::RunOptions ro;
  ro.max_frames = frames;
  ro.placement = placement;
  ro.sinks = std::move(sinks);
  const std::int64_t t0 = now_ns();
  const std::uint32_t span = tracer.record("sim.run", parent, t0, -1);
  sim::RunResult run = sim::run_simulation(*d.platform, *d.app, timed, ro);
  const std::int64_t t1 = now_ns();
  tracer.end_at(span, t1);
  hp.decide_ns.insert(hp.decide_ns.end(), timed.samples_ns().begin(),
                      timed.samples_ns().end());
  hp.decide_calls += timed.calls();
  if (is_learner(*d.governor)) {
    hp.learner_calls += timed.calls();
    hp.explorations += explorations_of(*d.governor);
  }
  hp.run_ns += static_cast<double>(t1 - t0);
  hp.frames += run.epoch_count;
  tracer.count("gov.decide", timed.calls());
  tracer.count("sim.epochs", run.epoch_count);

  const auto board = make_board(domains, board_seed);
  const wl::Application app = sim::make_application(spec, *board);
  const std::int64_t r0 = now_ns();
  const LayerReplay rep = replay_layers(*board, app, timed, frames, placement);
  tracer.record("replay.layers", parent, r0, now_ns());
  ledger.check(rep.frames == run.epoch_count &&
                   rep.energy_j == run.total_energy &&
                   rep.measured_energy_j == run.measured_energy,
               "layer replay of " + run.governor + " on " + run.application +
                   " does not reproduce the traced run's energy");
  tracer.count("hw.run_epoch_into", rep.epoch_calls);
  tracer.count("hw.sensor.integrate", rep.sensor_calls);
  tracer.count("wl.frames_filled", rep.frames);
  hp.add_replay(rep);
  if (out_result != nullptr) *out_result = run;
  return static_cast<double>(t1 - t0) / 1e9;
}

/// Decisions (= epochs on one domain) per timed piece of a solo-stream job.
constexpr std::size_t kSoloPiece = 1 << 14;

Result solo_stream(const Options& opt, Tracer& tracer) {
  Result r;
  // A job is one device, set up once, streaming two million frames. Jobs
  // cycle through several devices (sub-seeds) so the simulated metrics
  // average over more than one learning trajectory.
  const std::size_t frames = tiny(opt) ? 2000 : 2'000'000;
  const std::size_t devices = tiny(opt) ? 2 : 4;
  const std::string governor = "rtm-manycore";
  const auto spec_of = [&](std::size_t k) {
    return stream_spec(sub_seed(opt.seed, k % devices));
  };
  const sim::ExperimentSpec spec = spec_of(0);

  SetupSampler setup([&] {
    SetupTimes t;
    (void)build_device(1, spec, governor, spec.seed, &t);
    return t;
  });

  Phase phase;
  DigestCheck digests(opt, r, devices);
  SimTotals totals;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  {
    CpuRotation rotation;  // restored before the traced half
    timed_reps(budget, devices, [&](std::size_t k) {
      setup.take(kSetupPerJob);
      rotation.pin(k);
      const sim::ExperimentSpec sk = spec_of(k);
      Device d = build_device(1, sk, governor, sk.seed, nullptr);
      PieceClock clock(*d.governor, kSoloPiece);
      sim::RunOptions ro;
      ro.max_frames = frames;
      const double c0 = cpu_ns_self_and_children();
      const auto t0 = Clock::now();
      const sim::RunResult run =
          sim::run_simulation(*d.platform, *d.app, clock, ro);
      const double wall = seconds_since(t0);
      const double c1 = cpu_ns_self_and_children();
      r.ledger.op(true, "run");
      phase.add(static_cast<double>(run.epoch_count), wall, c1 - c0);
      phase.add_pieces(clock, static_cast<double>(kSoloPiece));
      check_epochs(r, "solo-stream run", run.epoch_count, frames);
      digests.rep(k, digest_run(run));
      if (k < devices) totals.add(run);
    });
  }
  sim_metrics(r, totals.energy_j, totals.misses, totals.frames);
  host_metrics(r, phase);
  r.metrics["setup_s"] = setup.median().total_s;
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  if (!opt.trace) return r;

  // Traced half: one device run with the forwarding governor, then the
  // layer replays.
  const double untraced_fps = r.info["phase_sim_frames_per_s"];
  const std::uint32_t root = tracer.begin("workload.solo-stream");
  HotPath hp;
  Device d = build_device(1, spec, governor, spec.seed, nullptr);
  sim::RunResult run;
  const double wall =
      traced_device_run(d, 1, spec.seed, spec, "packed", frames, {}, tracer,
                        root, kSampleEvery, hp, r.ledger, &run);
  tracer.end(root);
  check_epochs(r, "solo-stream traced run", run.epoch_count, frames);
  hot_path_metrics(r, hp, 1);
  setup_metrics(r, setup.median());
  finish_traced(r, untraced_fps, static_cast<double>(frames) / wall);
  return r;
}

// --- sinks-4domain -----------------------------------------------------------

constexpr std::size_t kDomains = 4;
constexpr const char* kPlacement = "spread";
constexpr std::size_t kCsvEvery = 64;
/// Decisions per timed piece of a sinks-4domain job (one per domain per
/// epoch, so a quarter as many epochs).
constexpr std::size_t kSinksPiece = 1 << 13;

/// Extract the balanced JSON object that follows \p key in \p body.
std::string json_object_after(const std::string& body, const std::string& key) {
  const auto at = body.find("\"" + key + "\":");
  if (at == std::string::npos) return "";
  std::size_t i = body.find('{', at);
  if (i == std::string::npos) return "";
  int depth = 0;
  for (std::size_t j = i; j < body.size(); ++j) {
    if (body[j] == '{') ++depth;
    if (body[j] == '}' && --depth == 0) return body.substr(i, j - i + 1);
  }
  return "";
}

/// Pause between a /snapshot reply and the next request in the timed jobs
/// and the traced job: the retry cadence of the repository's own client
/// (dash_tool's retry-ms default).
constexpr int kConsumerPollMs = 200;
/// Pause of the load-level poller, run only in the traced run's poll-share
/// reps: 200-300 requests/s, so those reps give the /snapshot latency
/// percentiles over 1000 samples and measure what that load costs the job.
constexpr int kLoadPollMs = 3;

/// Closed-loop /snapshot poller: one loopback connection at a time, the
/// next request sent \p pause_ms after the previous reply.
class Poller {
 public:
  Poller(const sim::DashboardSink& dash, int pause_ms)
      : dash_(dash), pause_ms_(pause_ms) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Poller() { stop(); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  std::vector<double> latencies_ms;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  std::uint64_t connect_failures = 0;

 private:
  void loop() {
    std::uint16_t port = 0;
    while (!done_ && (port = dash_.bound_port()) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    while (!done_) {
      ++requests;
      const auto t0 = Clock::now();
      try {
        const common::HttpResult res =
            common::http_get("127.0.0.1", port, "/snapshot", 5000);
        if (res.status == 200) {
          latencies_ms.push_back(seconds_since(t0) * 1e3);
        } else {
          ++failures;
        }
      } catch (const std::exception&) {
        ++failures;
        ++connect_failures;
      }
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait_for(lock, std::chrono::milliseconds(pause_ms_),
                     [this] { return done_.load(); });
    }
  }

  const sim::DashboardSink& dash_;
  int pause_ms_;
  std::mutex mu_;
  std::condition_variable wake_;  // ends a pause early on stop()
  std::atomic<bool> done_{false};
  std::thread thread_;  // declared last: uses the members above
};

struct SinkSet {
  std::vector<std::unique_ptr<sim::TelemetrySink>> owned;
  sim::DashboardSink* dash = nullptr;
  ForwardSink* csv = nullptr;
  sim::SampleSink* sample = nullptr;
  std::vector<sim::TelemetrySink*> ptrs() const {
    std::vector<sim::TelemetrySink*> out;
    for (const auto& s : owned) out.push_back(s.get());
    return out;
  }
};

std::string path_in(const Options& opt, const std::string& name) {
  return (fs::path(opt.work_dir) / name).string();
}

/// The job's sinks: bintrace, decimated csv (through a forwarding sink so
/// its row cost is timed), and the dashboard on an ephemeral port.
SinkSet make_sinks(const Options& opt, Tracer* tracer, std::uint32_t parent) {
  SinkSet s;
  s.owned.push_back(
      sim::make_sink("bintrace(path=" + path_in(opt, "run.bt") + ")"));
  auto csv = std::make_unique<ForwardSink>(
      sim::make_sink("csv(path=" + path_in(opt, "run.csv") + ")"), tracer,
      parent, "sim.sink.csv", 16);
  s.csv = csv.get();
  auto sample = std::make_unique<sim::SampleSink>(kCsvEvery, std::move(csv));
  s.sample = sample.get();
  s.owned.push_back(std::move(sample));
  auto dash = sim::make_sink("dashboard(port=0,every=1000,tail=32)");
  s.dash = dynamic_cast<sim::DashboardSink*>(dash.get());
  s.owned.push_back(std::move(dash));
  return s;
}

struct ReadBack {
  sim::RunResult acc;
  std::uint64_t records = 0;
  double read_s = 0.0;
};

ReadBack read_trace(const std::string& path) {
  ReadBack rb;
  const auto t0 = Clock::now();
  sim::BinTraceReader reader(path);
  while (const auto rec = reader.next()) {
    rb.acc.accumulate(*rec);
    ++rb.records;
  }
  rb.read_s = seconds_since(t0);
  return rb;
}

bool same_aggregates(const sim::RunResult& a, const sim::RunResult& b) {
  return a.epoch_count == b.epoch_count && a.total_energy == b.total_energy &&
         a.total_time == b.total_time &&
         a.deadline_misses == b.deadline_misses &&
         a.performance_sum == b.performance_sum && a.power_sum == b.power_sum;
}

/// Wall seconds of one sink-variant pass of the 4-domain (or 1-domain)
/// stream, used for difference timing of sinks the engine binds by type.
double sink_pass(std::size_t domains,
                 const sim::ExperimentSpec& spec, std::size_t frames,
                 const std::string& sink_spec, std::uint64_t* snapshots) {
  Device d = build_device(domains, spec, "rtm-manycore", spec.seed, nullptr);
  std::unique_ptr<sim::TelemetrySink> sink;
  sim::RunOptions ro;
  ro.max_frames = frames;
  ro.placement = kPlacement;
  if (!sink_spec.empty()) {
    sink = sim::make_sink(sink_spec);
    ro.sinks.push_back(sink.get());
  }
  const auto t0 = Clock::now();
  const sim::RunResult run =
      sim::run_simulation(*d.platform, *d.app, *d.governor, ro);
  const double wall = seconds_since(t0);
  if (run.epoch_count != frames) {
    throw std::runtime_error("sink pass executed " +
                             std::to_string(run.epoch_count) + " of " +
                             std::to_string(frames) + " epochs");
  }
  if (snapshots != nullptr) {
    if (auto* ck = dynamic_cast<sim::CheckpointSink*>(sink.get())) {
      *snapshots = ck->snapshots_written();
    }
  }
  return wall;
}

Result sinks_4domain(const Options& opt, Tracer& tracer) {
  Result r;
  const std::size_t frames = tiny(opt) ? 3000 : 400'000;
  // Reps cycle through several devices, as in solo-stream.
  const std::size_t devices = tiny(opt) ? 2 : 3;
  const auto spec_of = [&](std::size_t k) {
    return stream_spec(sub_seed(opt.seed, k % devices));
  };
  const sim::ExperimentSpec spec = spec_of(0);
  const std::string governor = "rtm-manycore";
  fs::create_directories(opt.work_dir);
  const std::string bt_path = path_in(opt, "run.bt");
  const std::string csv_path = path_in(opt, "run.csv");

  SetupSampler setup([&] {
    SetupTimes t;
    Device d = build_device(kDomains, spec, governor, spec.seed, &t);
    const SinkSet sinks = make_sinks(opt, nullptr, 0);
    return t;
  });

  Phase phase;
  std::vector<double> read_rps, snap_ms;
  DigestCheck digests(opt, r, devices);
  SimTotals totals;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  // One rep of the job. With a tracer the governor is wrapped and the csv
  // sink's rows are timed; /snapshot is polled with a pause of poll_ms, or
  // not at all for 0; only timed reps count toward the phase and the
  // digests. Every untraced rep adds its read-back rate, and every rep
  // polled at the load level its /snapshot latencies.
  struct JobMode {
    Tracer* tracer = nullptr;
    std::uint32_t parent = 0;
    int poll_ms = kConsumerPollMs;
    bool timed = true;
  };
  struct JobTimes {
    double wall_s = 0.0;
    double cpu_ns = 0.0;
  };
  const auto job = [&](std::size_t k, const JobMode& mode) {
    Tracer* const tr = mode.tracer;
    fs::remove(csv_path);  // the csv sink appends across runs
    const sim::ExperimentSpec sk = spec_of(k);
    Device d = build_device(kDomains, sk, governor, sk.seed, nullptr);
    SinkSet sinks = make_sinks(opt, tr, mode.parent);
    std::optional<TimedGovernor> timed;
    std::optional<PieceClock> clock;
    if (tr != nullptr) {
      timed.emplace(*d.governor, tr, mode.parent, kSampleEvery, false);
    } else if (mode.timed) {
      clock.emplace(*d.governor, kSinksPiece);
    }
    gov::Governor& g = timed   ? static_cast<gov::Governor&>(*timed)
                       : clock ? static_cast<gov::Governor&>(*clock)
                               : *d.governor;
    sim::RunOptions ro;
    ro.max_frames = frames;
    ro.placement = kPlacement;
    ro.sinks = sinks.ptrs();
    sim::RunResult run;
    JobTimes times;
    {
      std::optional<Poller> poller;
      if (mode.poll_ms > 0) poller.emplace(*sinks.dash, mode.poll_ms);
      const double c0 = cpu_ns_self_and_children();
      const auto t0 = Clock::now();
      run = sim::run_simulation(*d.platform, *d.app, g, ro);
      times.wall_s = seconds_since(t0);
      times.cpu_ns = cpu_ns_self_and_children() - c0;
      if (poller) {
        poller->stop();
        for (std::uint64_t i = 0; i < poller->requests; ++i) {
          r.ledger.op(i >= poller->failures, "dashboard /snapshot request");
        }
        if (mode.poll_ms == kLoadPollMs) {
          snap_ms.insert(snap_ms.end(), poller->latencies_ms.begin(),
                         poller->latencies_ms.end());
        }
        if (tr != nullptr) {
          tr->count("common.http.requests_client", poller->requests);
          tr->count("common.http.connect_failures", poller->connect_failures);
          r.metrics["common.http.requests_client"] =
              static_cast<double>(poller->requests);
          r.metrics["common.http.connect_failures"] =
              static_cast<double>(poller->connect_failures);
        }
      }
    }
    if (mode.timed) {
      phase.add(static_cast<double>(frames), times.wall_s, times.cpu_ns);
      if (clock) {
        phase.add_pieces(*clock, static_cast<double>(kSinksPiece / kDomains));
      }
    }
    r.ledger.op(true, "run");
    check_epochs(r, "sinks-4domain run", run.epoch_count, frames);

    // The final /snapshot must equal the engine's aggregates, rendered by
    // the same function.
    std::string final_body;
    try {
      final_body = common::http_get("127.0.0.1", sinks.dash->bound_port(),
                                    "/snapshot", 5000)
                       .body;
      r.ledger.op(true, "dashboard /snapshot request");
    } catch (const std::exception& e) {
      r.ledger.op(false, std::string("final /snapshot: ") + e.what());
    }
    r.ledger.check(json_object_after(final_body, "aggregates") ==
                       sim::snapshot_aggregates_json(run),
                   "sinks-4domain: final /snapshot differs from the run");
    if (tr != nullptr) {
      r.metrics["common.http.requests_served"] =
          static_cast<double>(sinks.dash->requests_served());
    }
    const std::uint64_t csv_rows = sinks.sample->forwarded();
    r.ledger.check(csv_rows == (frames + kCsvEvery - 1) / kCsvEvery,
                   "sinks-4domain: csv sample forwarded a wrong row count");
    sinks.owned.clear();  // seal the trace, close the csv, stop the server

    // Read the .bt back; it must re-accumulate to the live RunResult.
    const ReadBack rb = read_trace(bt_path);
    r.ledger.check(rb.records == frames && same_aggregates(rb.acc, run),
                   "sinks-4domain: .bt does not re-accumulate to the run");
    if (tr == nullptr) {
      read_rps.push_back(static_cast<double>(rb.records) / rb.read_s);
    }
    std::uint64_t digest = digest_run(run);
    common::Fnv1a64 mix;
    mix.u64(digest);
    mix.u64(fnv_file(bt_path));
    digest = mix.value();
    {
      // to_csv must reproduce one CSV row per record, plus the header.
      sim::BinTraceReader reader(bt_path);
      LineCountingBuf buf;
      std::ostream out(&buf);
      const auto t0 = Clock::now();
      reader.to_csv(out);
      const double s = seconds_since(t0);
      r.ledger.check(buf.lines() == frames + 1,
                     "sinks-4domain: to_csv wrote a wrong line count");
      if (tr != nullptr) {
        r.metrics["sim.bintrace.to_csv_ns_per_record"] =
            s * 1e9 / static_cast<double>(frames);
        r.metrics["sim.bintrace.read_ns_per_record"] =
            rb.read_s * 1e9 / static_cast<double>(frames);
        r.metrics["sim.sink.bintrace_bytes_per_epoch"] =
            static_cast<double>(fs::file_size(bt_path)) /
            static_cast<double>(frames);
        r.metrics["sim.sink.csv_bytes_per_row"] =
            static_cast<double>(fs::file_size(csv_path)) /
            static_cast<double>(csv_rows);
      }
    }
    if (mode.timed) {
      digests.rep(k, digest);
      if (k < devices) totals.add(run);
    }
    if (tr != nullptr) tr->count("gov.decide", timed->calls());
    return times;
  };

  {
    CpuRotation rotation;
    timed_reps(budget, devices, [&](std::size_t k) {
      setup.take(kSetupPerJob);
      // The poller and the server's connection threads inherit the pair.
      rotation.pin(k, 2);
      (void)job(k, JobMode{});
      rotation.release();
    });
  }
  sim_metrics(r, totals.energy_j, totals.misses, totals.frames);
  host_metrics(r, phase);
  r.metrics["setup_s"] = setup.median().total_s;
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  // The reader-side metrics into \p out: the .bt read rate over every
  // untraced rep, /snapshot latency over the reps polled at the load level
  // (only the traced run has those).
  const auto reader_metrics = [&](std::map<std::string, double>& out) {
    const std::size_t n = snap_ms.size();
    out["snapshot_p50_ms"] = percentile(snap_ms, 50.0);
    out["snapshot_p99_ms"] = percentile(snap_ms, 99.0);
    out["bt_read_records_per_s"] = median(read_rps);
    r.info["snapshot_samples"] = static_cast<double>(n);
    r.info["snapshot_tail_percentile_supported"] = tail_percentile_for(n);
  };
  if (!opt.trace) {
    // Workload-specific metrics are reported by the traced run only.
    reader_metrics(r.info);
    return r;
  }

  // Traced half. The job itself, traced.
  const double untraced_fps = r.info["phase_sim_frames_per_s"];
  const std::uint32_t root = tracer.begin("workload.sinks-4domain");
  const std::uint32_t job_span = tracer.begin("sinks.job", root);
  const double traced_wall =
      job(0, JobMode{&tracer, job_span, kConsumerPollMs, false}).wall_s;
  tracer.end(job_span);

  // The load-level poller: its /snapshot latencies, and its and the
  // server's share of the job. Reps polled at the load level and unpolled
  // reps alternate, in turn first, on the same CPU pair.
  {
    const std::uint32_t span = tracer.begin("sinks.poll_share", root);
    Phase polled, unpolled;
    CpuRotation rotation;
    const std::size_t rounds = tiny(opt) ? 1 : 6;
    for (std::size_t k = 0; k < rounds; ++k) {
      rotation.pin(k, 2);
      for (const bool poll : {k % 2 == 0, k % 2 != 0}) {
        const JobTimes t =
            job(k, JobMode{nullptr, 0, poll ? kLoadPollMs : 0, false});
        (poll ? polled : unpolled)
            .add(static_cast<double>(frames), t.wall_s, t.cpu_ns);
      }
      rotation.release();
    }
    tracer.end(span);
    const double polled_fps = polled.frames / polled.wall_s;
    const double unpolled_fps = unpolled.frames / unpolled.wall_s;
    r.info["poll_share.polled_sim_frames_per_s"] = polled_fps;
    r.info["poll_share.unpolled_sim_frames_per_s"] = unpolled_fps;
    r.info["poll_share.fps_ratio"] = polled_fps / unpolled_fps;
    r.info["poll_share.cpu_ratio"] = (polled.cpu_ns / polled.frames) /
                                     (unpolled.cpu_ns / unpolled.frames);
  }
  reader_metrics(r.metrics);

  // Difference passes for the sinks the engine binds by type. Every round
  // runs each variant once on one CPU, so a round's differences are taken
  // on the same core; the metrics are the medians of the rounds'
  // differences.
  const std::size_t pass_frames = tiny(opt) ? frames : 200'000;
  const double pf = static_cast<double>(pass_frames);
  std::vector<double> tax, bt_cost, dash_cost, ck_cost, csv_row;
  std::uint64_t snapshots = 0;
  const std::size_t ck_every = 500;
  const std::string ck_path = path_in(opt, "run.ckpt");
  {
    CpuRotation rotation;
    for (std::size_t round = 0; round < 5; ++round) {
      rotation.pin(round);
      const std::int64_t s0 = now_ns();
      const double p4 = sink_pass(kDomains, spec, pass_frames, "", nullptr);
      const double p1 = sink_pass(1, spec, pass_frames, "", nullptr);
      const double pbt = sink_pass(
          kDomains, spec, pass_frames,
          "bintrace(path=" + path_in(opt, "pass.bt") + ")", nullptr);
      const double pdash =
          sink_pass(kDomains, spec, pass_frames,
                    "dashboard(port=0,every=1000,tail=32)", nullptr);
      // The engine rejects checkpoint sinks on multi-domain boards, so the
      // checkpoint sink is timed on the single-domain board of the same
      // stream, against the single-domain sink-free pass.
      const double pck = sink_pass(1, spec, pass_frames,
                                   "checkpoint(path=" + ck_path + ",every=" +
                                       std::to_string(ck_every) + ")",
                                   &snapshots);
      tax.push_back((p4 - p1) * 1e9 / pf);
      bt_cost.push_back((pbt - p4) * 1e9 / pf);
      dash_cost.push_back((pdash - p4) * 1e9 / pf);
      if (snapshots != 0) {
        ck_cost.push_back((pck - p1) * 1e9 / static_cast<double>(snapshots));
      }
      // The csv row cost through the forwarding sink, undecimated.
      {
        fs::remove(path_in(opt, "pass.csv"));
        Device d = build_device(kDomains, spec, governor, spec.seed, nullptr);
        ForwardSink fwd(sim::make_sink("csv(path=" + path_in(opt, "pass.csv") +
                                       ")"),
                        &tracer, root, "sim.sink.csv", 4096);
        sim::RunOptions ro;
        ro.max_frames = pass_frames / 8;
        ro.placement = kPlacement;
        ro.sinks = {&fwd};
        (void)sim::run_simulation(*d.platform, *d.app, *d.governor, ro);
        csv_row.push_back(fwd.total_ns() / static_cast<double>(fwd.calls()));
      }
      tracer.record("sink.passes", root, s0, now_ns());
    }
  }
  r.metrics["sim.engine.domain_tax_ns_per_frame"] = median(tax);
  r.metrics["sim.sink.bintrace_ns_per_epoch"] = median(bt_cost);
  r.metrics["sim.sink.dashboard_ns_per_epoch"] = median(dash_cost);
  r.metrics["sim.sink.checkpoint_ns_per_snapshot"] =
      ck_cost.empty() ? 0.0 : median(ck_cost);
  r.metrics["sim.checkpoint.bytes"] =
      fs::exists(ck_path) ? static_cast<double>(fs::file_size(ck_path)) : 0.0;
  r.metrics["sim.sink.csv_ns_per_row"] = median(csv_row);
  r.info["sink_pass_frames"] = pf;
  r.info["checkpoint_snapshots_per_pass"] = static_cast<double>(snapshots);

  // Dashboard snapshot rendering, called directly.
  {
    sim::RunResult sample;
    sample.epoch_count = frames;
    sample.total_energy = 123.456;
    sample.total_time = 78.9;
    const int calls = 20000;
    std::size_t chars = 0;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < calls; ++i) {
      sample.deadline_misses = static_cast<std::size_t>(i);
      chars += sim::snapshot_aggregates_json(sample).size();
    }
    const std::int64_t t1 = now_ns();
    tracer.record("sim.dashboard.snapshot_json", root, t0, t1);
    r.metrics["sim.dashboard.snapshot_json_ns"] =
        static_cast<double>(t1 - t0) / calls;
    r.info["snapshot_json_chars"] = static_cast<double>(chars) / calls;
  }

  // Sink open cost: construct each of the job's sinks and start a run on it.
  {
    std::vector<double> open_us;
    for (int round = 0; round < 5; ++round) {
      const std::int64_t t0 = now_ns();
      SinkSet sinks = make_sinks(opt, nullptr, 0);
      sim::RunContext ctx;
      ctx.governor = "rtm-manycore";
      ctx.application = "h264";
      ctx.frames = 1;
      for (sim::TelemetrySink* s : sinks.ptrs()) s->on_run_begin(ctx);
      open_us.push_back(us_since(t0) / static_cast<double>(sinks.owned.size()));
      sinks.owned.clear();
    }
    r.metrics["sim.sink.open_us"] = median(open_us);
  }

  // Hot-path layers on a sink-free traced run of the same stream.
  HotPath hp;
  {
    Device d = build_device(kDomains, spec, governor, spec.seed, nullptr);
    (void)traced_device_run(d, kDomains, spec.seed, spec, kPlacement,
                            pass_frames, {}, tracer, root, kSampleEvery, hp,
                            r.ledger, nullptr);
  }
  tracer.end(root);

  hot_path_metrics(r, hp, kDomains);
  setup_metrics(r, setup.median());
  finish_traced(r, untraced_fps, static_cast<double>(frames) / traced_wall);
  return r;
}

// --- fleet-short -------------------------------------------------------------

fleet::PopulationSpec fleet_population(const Options& opt) {
  fleet::PopulationSpec pop;
  pop.governors = {"ondemand", "rtm"};
  pop.workloads = {"flat(mean=2e8,cv=0.1)", "h264"};
  pop.fps = {30.0};
  pop.devices_per_cell = tiny(opt) ? 6 : 1500;
  pop.frames = 100;
  pop.stream = true;
  pop.base_seed = opt.seed;
  return pop;
}

constexpr std::size_t kShards = 2;
constexpr std::size_t kWorkers = 2;

/// The application spec a fleet worker builds for \p dev.
sim::ExperimentSpec device_spec(const fleet::PopulationSpec& pop,
                                const fleet::DeviceSpec& dev) {
  sim::ExperimentSpec spec;
  spec.workload = dev.workload;
  spec.fps = dev.fps;
  spec.frames = pop.frames;
  spec.seed = dev.trace_seed;
  spec.stream = pop.stream;
  spec.target_utilisation = pop.target_utilisation;
  return spec;
}

/// The shard of \p plan holding device \p i (shards are contiguous ranges).
std::size_t plan_shard_of(const fleet::ShardPlan& plan, std::size_t i) {
  for (std::size_t sh = 0; sh < plan.shard_count(); ++sh) {
    const fleet::Shard shard = plan.shard(sh);
    if (i >= shard.device_begin && i < shard.device_end) return sh;
  }
  return 0;
}

Result fleet_short(const Options& opt, Tracer& tracer) {
  Result r;
  fs::create_directories(opt.work_dir);

  // Set-up: the population, its shard plan and driver, and what a worker
  // does before a device's first epoch, once for the first device of every
  // cell (each governor x workload pairing sets up differently).
  SetupSampler setup([&] {
    SetupTimes t;
    const fleet::PopulationSpec pop = fleet_population(opt);
    pop.validate();
    (void)pop.fingerprint();
    const fleet::ShardPlan plan(pop.device_count(), kShards);
    fleet::FleetOptions fo;
    fo.shards = kShards;
    fo.workers = kWorkers;
    fo.out_dir = path_in(opt, "fleet-setup");
    const fleet::FleetDriver driver(fo);
    std::vector<bool> seen(pop.cell_count(), false);
    for (std::size_t i = 0; i < pop.device_count(); ++i) {
      const fleet::DeviceSpec dev = pop.device(i);
      if (seen[dev.cell]) continue;
      seen[dev.cell] = true;
      std::int64_t s = now_ns();
      const auto platform = hw::Platform::odroid_xu3_a15(dev.platform_seed);
      t.platform_us += us_since(s);
      s = now_ns();
      const wl::Application app =
          sim::make_application(device_spec(pop, dev), *platform);
      t.app_us += us_since(s);
      s = now_ns();
      const auto governor = sim::make_governor(dev.governor, dev.governor_seed);
      t.gov_us += us_since(s);
      if (std::find(seen.begin(), seen.end(), false) == seen.end()) break;
    }
    return t;
  });

  const fleet::PopulationSpec pop = fleet_population(opt);
  const std::uint64_t devices = pop.device_count();
  Phase phase;
  DigestCheck digests(opt, r, 1);
  std::size_t launches = 0, retries = 0;
  // One FleetDriver run into a fresh directory (finished shard summaries
  // in an old directory would be reused, not re-run).
  const auto fleet_run = [&](std::size_t k, double* wall_out) {
    const std::string out_dir = path_in(opt, "fleet-" + std::to_string(k));
    fs::remove_all(out_dir);
    fleet::FleetOptions fo;
    fo.shards = kShards;
    fo.workers = kWorkers;
    fo.retries = 2;
    fo.out_dir = out_dir;
    fleet::FleetDriver driver(fo);
    const auto t0 = Clock::now();
    const fleet::PopulationReport report = driver.run(pop);
    *wall_out = seconds_since(t0);
    launches = driver.launches();
    retries = driver.retries_used();
    return std::make_pair(report, out_dir);
  };

  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  CpuRotation rotation;
  timed_reps(budget, tiny(opt) ? 2 : 3, [&](std::size_t k) {
    setup.take(kSetupPerJob);
    double wall = 0.0;
    rotation.pin(k, kWorkers);  // the workers inherit the pair
    const double c0 = cpu_ns_self_and_children();
    auto [report, out_dir] = fleet_run(k, &wall);
    const double c1 = cpu_ns_self_and_children();
    rotation.release();
    r.ledger.op(true, "fleet run");
    r.ledger.ops(report.devices);  // each device is an operation
    std::uint64_t epochs = 0;
    double energy = 0.0, misses = 0.0;
    for (const auto& row : report.rows) {
      epochs += row.epochs;
      energy += row.mean_energy * static_cast<double>(row.devices);
      misses += row.mean_miss_rate * static_cast<double>(row.devices) *
                static_cast<double>(pop.frames);
    }
    r.ledger.check(report.devices == devices,
                   "fleet-short: report covers " +
                       std::to_string(report.devices) + " of " +
                       std::to_string(devices) + " devices");
    check_epochs(r, "fleet-short population", epochs, devices * pop.frames);
    std::ostringstream csv;
    report.write_csv(csv);
    digests.rep(k, fnv_bytes(csv.str()));
    phase.add(static_cast<double>(epochs), wall, c1 - c0);
    if (k == 0) {
      sim_metrics(r, energy, misses, static_cast<double>(epochs));
    }
    fs::remove_all(out_dir);
  });
  const double phase_devices =
      static_cast<double>(devices * phase.job_fps.size());
  host_metrics(r, phase);
  r.metrics["setup_s"] = setup.median().total_s;
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  if (!opt.trace) {
    r.info["devices_per_s"] = phase_devices / phase.wall_s;
    return r;
  }
  r.metrics["devices_per_s"] = phase_devices / phase.wall_s;
  const double untraced_fps = r.info["phase_sim_frames_per_s"];

  // Traced half: one traced FleetDriver run, a separate timing of its merge,
  // then every device replayed in-process with per-stage timing, so each
  // shard's device time is known and the wait on the slowest shard shows.
  const std::uint32_t root = tracer.begin("workload.fleet-short");
  double wall = 0.0;
  const std::uint32_t run_span = tracer.begin("fleet.run", root);
  auto [report, out_dir] = fleet_run(1000, &wall);
  tracer.end(run_span);
  (void)report;
  const fleet::ShardPlan plan(pop.device_count(), kShards);
  const std::uint32_t merge_span = tracer.begin("fleet.merge_shards", root);
  const std::int64_t m0 = now_ns();
  (void)fleet::FleetDriver::merge_shards(pop, plan, out_dir);
  const double merge_ms = static_cast<double>(now_ns() - m0) / 1e6;
  tracer.end(merge_span);
  fs::remove_all(out_dir);
  r.metrics["fleet.merge_shards_ms"] = merge_ms;
  r.metrics["fleet.launches"] = static_cast<double>(launches);
  r.metrics["fleet.retries_used"] = static_cast<double>(retries);
  tracer.count("fleet.launches", launches);
  tracer.count("fleet.retries_used", retries);

  HotPath hp;
  std::vector<double> device_us, save_us, merge_us, plat_us, app_us, gov_us;
  std::vector<double> shard_ns(kShards, 0.0);
  std::map<std::size_t, std::unique_ptr<gov::StateMerger>> mergers;
  const std::size_t replay_every = tiny(opt) ? 1 : 64;
  for (std::size_t i = 0; i < devices; ++i) {
    const fleet::DeviceSpec dev = pop.device(i);
    const bool sampled = i % replay_every == 0;
    const std::uint32_t dspan =
        sampled ? tracer.begin("fleet.device", root) : 0;
    // Times one stage of the device; sampled devices also get a span.
    const auto stage = [&](const char* name, const std::function<void()>& fn) {
      const std::int64_t t0 = now_ns();
      fn();
      const std::int64_t t1 = now_ns();
      if (sampled) tracer.record(name, dspan, t0, t1);
      return static_cast<double>(t1 - t0) / 1e3;
    };
    const sim::ExperimentSpec spec = device_spec(pop, dev);
    Device d;
    double us = 0.0;
    plat_us.push_back(stage("hw.platform_build", [&] {
      d.platform = hw::Platform::odroid_xu3_a15(dev.platform_seed);
    }));
    app_us.push_back(stage("wl.make_application", [&] {
      d.app.emplace(sim::make_application(spec, *d.platform));
    }));
    gov_us.push_back(stage("gov.make_governor", [&] {
      d.governor = sim::make_governor(dev.governor, dev.governor_seed);
    }));
    us += plat_us.back() + app_us.back() + gov_us.back();
    sim::RunResult run;
    if (sampled) {
      // Sampled devices run under the forwarding governor and get their
      // frame-source and hardware layers replayed (replay time excluded).
      us += traced_device_run(d, 1, dev.platform_seed, spec, "packed",
                              pop.frames, {}, tracer, dspan, 1, hp, r.ledger,
                              &run) *
            1e6;
    } else {
      us += stage("sim.run", [&] {
        sim::RunOptions ro;
        ro.max_frames = pop.frames;
        run = sim::run_simulation(*d.platform, *d.app, *d.governor, ro);
      });
    }
    std::string payload;
    save_us.push_back(stage("fleet.save_state", [&] {
      std::ostringstream state(std::ios::binary);
      d.governor->save_state(state);
      payload = state.str();
    }));
    us += save_us.back();
    auto it = mergers.find(dev.cell);
    if (it == mergers.end()) {
      it = mergers.emplace(dev.cell, d.governor->make_state_merger()).first;
    }
    if (it->second) {
      merge_us.push_back(
          stage("qlib.merge_add", [&] { it->second->add_state(payload); }));
      us += merge_us.back();
    }
    tracer.end(dspan);
    device_us.push_back(us);
    shard_ns[plan_shard_of(plan, i)] += us * 1e3;
    if (run.epoch_count != pop.frames) {
      r.ledger.check(false, "fleet-short: replayed device ran " +
                                std::to_string(run.epoch_count) + " epochs");
    }
  }
  tracer.end(root);
  const auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  };
  r.metrics["fleet.device_run_us"] = mean(device_us);
  r.metrics["fleet.save_state_us"] = mean(save_us);
  r.metrics["qlib.merge_add_us"] = mean(merge_us);
  const double slowest_ms =
      *std::max_element(shard_ns.begin(), shard_ns.end()) / 1e6;
  r.metrics["fleet.shard_wait_ms"] = wall * 1e3 - merge_ms - slowest_ms;
  r.info["fleet.slowest_shard_device_ms"] = slowest_ms;
  r.info["fleet.traced_run_ms"] = wall * 1e3;
  hot_path_metrics(r, hp, 1);
  SetupTimes fleet_setup;
  fleet_setup.platform_us = median(plat_us);
  fleet_setup.app_us = median(app_us);
  fleet_setup.gov_us = median(gov_us);
  setup_metrics(r, fleet_setup);
  finish_traced(r, untraced_fps,
                static_cast<double>(devices * pop.frames) / wall);
  return r;
}

// --- paper-sweep -------------------------------------------------------------

const std::vector<std::string> kSweepGovernors = {"ondemand", "mcdvfs",
                                                  "rtm-manycore", "rtm"};
const std::vector<std::string> kSweepWorkloads = {"h264", "mpeg4", "fft"};
const std::vector<double> kSweepFps = {25.0, 30.0};
constexpr std::size_t kSweepThreads = 2;
/// Stamped runs the traced half collects at least: the p99 of 1000 samples
/// has ten beyond it (see tail_percentile_for).
constexpr std::uint64_t kStampedRuns = 1000;
/// Table I of the paper: energy normalised to the Oracle, H.264 at 25 fps.
const std::vector<std::pair<std::string, double>> kTableI = {
    {"ondemand", 1.29}, {"mcdvfs", 1.20}, {"rtm-manycore", 1.11}};

sim::ExperimentBuilder sweep_builder(std::uint64_t trace_seed,
                                     std::size_t frames, bool stamped) {
  sim::ExperimentBuilder b;
  b.governors(kSweepGovernors)
      .workloads(kSweepWorkloads)
      .fps_set(kSweepFps)
      .frames(frames)
      .stream(false)
      .trace_seed(trace_seed)
      .governor_seed(trace_seed)
      .parallelism(kSweepThreads);
  if (stamped) b.telemetry("perfbench-stamp");
  return b;
}

Result paper_sweep(const Options& opt, Tracer& tracer) {
  Result r;
  const std::size_t frames = tiny(opt) ? 300 : 3000;
  // Each rep sweeps the matrix over several trace seeds derived from the
  // workload seed, so one rep is long enough to time and the accuracy
  // figure is averaged over more than one trace.
  const std::size_t seeds_per_rep = tiny(opt) ? 1 : 24;
  const auto trace_seed = [&](std::size_t j) {
    return opt.seed * 1000 + static_cast<std::uint64_t>(j);
  };

  SetupSampler setup([&] {
    // Builder configuration, the scenario matrix, and the first cell's
    // platform, materialised application and Oracle governor — what runs
    // before the first epoch.
    SetupTimes t;
    const sim::ExperimentBuilder b = sweep_builder(trace_seed(0), frames, false);
    const std::vector<sim::Scenario> matrix = b.scenarios();
    std::int64_t s = now_ns();
    const auto platform = hw::Platform::odroid_xu3_a15();
    t.platform_us = us_since(s);
    s = now_ns();
    const wl::Application app =
        sim::make_application(matrix.front().app, *platform);
    t.app_us = us_since(s);
    s = now_ns();
    const auto oracle = sim::make_governor("oracle", trace_seed(0));
    t.gov_us = us_since(s);
    return t;
  });

  Phase phase;
  double runs = 0.0;
  DigestCheck digests(opt, r, 1);
  double err_sum = 0.0;
  std::size_t err_n = 0;
  std::uint64_t explorations = 0, learner_frames = 0;
  // One rep: the sweeps; returns {runs, frames, digest, energy, misses}.
  struct RepOut {
    std::uint64_t runs = 0, frames = 0, digest = 0;
    double energy = 0.0, misses = 0.0;
  };
  const auto rep_once = [&](bool stamped, bool collect) {
    RepOut out;
    out.digest = common::Fnv1a64::kOffsetBasis;
    for (std::size_t j = 0; j < seeds_per_rep; ++j) {
      const sim::SweepResult sweep =
          sweep_builder(trace_seed(j), frames, stamped).run();
      const auto fold = [&](const sim::RunResult& run) {
        ++out.runs;
        out.frames += run.epoch_count;
        out.energy += run.total_energy;
        out.misses += static_cast<double>(run.deadline_misses);
        digest_run(out.digest, run);
        check_epochs(r, "paper-sweep run", run.epoch_count, frames);
      };
      for (const auto& res : sweep.results) {
        fold(res.run);
        if (collect && res.governor && is_learner(*res.governor)) {
          explorations += explorations_of(*res.governor);
          learner_frames += res.run.epoch_count;
        }
      }
      for (const auto& oracle : sweep.oracle_runs) fold(oracle);
      if (collect) {
        for (const auto& [name, ref] : kTableI) {
          const sim::ScenarioResult* hit = sweep.find(name, "h264", 25.0);
          r.ledger.check(hit != nullptr,
                         "paper-sweep: no " + name + " h264 25 fps cell");
          if (hit != nullptr) {
            err_sum += std::fabs(hit->row.normalized_energy - ref);
            ++err_n;
          }
        }
      }
    }
    r.ledger.ops(out.runs);
    return out;
  };

  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  CpuRotation rotation;
  timed_reps(budget, tiny(opt) ? 2 : 3, [&](std::size_t k) {
    setup.take(kSetupPerJob);
    rotation.pin(k, kSweepThreads);  // the builder's threads inherit the pair
    const double c0 = cpu_ns_self_and_children();
    const auto t0 = Clock::now();
    const RepOut out = rep_once(false, k == 0);
    const double wall = seconds_since(t0);
    const double c1 = cpu_ns_self_and_children();
    rotation.release();
    phase.add(static_cast<double>(out.frames), wall, c1 - c0);
    runs += static_cast<double>(out.runs);
    digests.rep(k, out.digest);
    if (k == 0) {
      sim_metrics(r, out.energy, out.misses, static_cast<double>(out.frames));
      r.info["runs_per_rep"] = static_cast<double>(out.runs);
    }
  });
  host_metrics(r, phase);
  r.metrics["setup_s"] = setup.median().total_s;
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  const double paper_err = err_n ? err_sum / static_cast<double>(err_n) : 0.0;
  if (!opt.trace) {
    r.info["scenarios_per_s"] = runs / phase.wall_s;
    r.info["paper_energy_err"] = paper_err;
    return r;
  }
  r.metrics["scenarios_per_s"] = runs / phase.wall_s;
  r.metrics["paper_energy_err"] = paper_err;
  r.metrics["rtm.explorations"] = static_cast<double>(explorations);
  const double untraced_fps = r.info["phase_sim_frames_per_s"];

  // Traced half: reps with the stamping sink on every scenario and Oracle
  // run, giving per-run busy time on the builder's two threads; enough reps
  // that the p99 of the run times has ten samples beyond it.
  const std::uint32_t root = tracer.begin("workload.paper-sweep");
  StampBoard::instance().clear();
  const std::int64_t t0 = now_ns();
  const std::uint32_t sweep_span = tracer.record("sim.builder.run", root, t0, -1);
  RepOut out;
  do {
    const RepOut o = rep_once(true, false);
    out.runs += o.runs;
    out.frames += o.frames;
  } while (!tiny(opt) && out.runs < kStampedRuns);
  const std::int64_t t1 = now_ns();
  tracer.end_at(sweep_span, t1);
  const std::vector<RunStamp> stamps = StampBoard::instance().take();
  std::vector<double> run_ms;
  double busy = 0.0, oracle = 0.0;
  for (const RunStamp& s : stamps) {
    const double ns = static_cast<double>(s.end_ns - s.begin_ns);
    run_ms.push_back(ns / 1e6);
    busy += ns;
    if (s.governor.rfind("oracle", 0) == 0) oracle += ns;
    tracer.record("sim.builder.scenario", sweep_span, s.begin_ns, s.end_ns);
  }
  tracer.count("sim.builder.runs", stamps.size());
  r.ledger.check(stamps.size() == out.runs,
                 "paper-sweep: stamped " + std::to_string(stamps.size()) +
                     " of " + std::to_string(out.runs) + " runs");
  r.metrics["sim.builder.scenario_ms_p50"] = percentile(run_ms, 50.0);
  r.metrics["sim.builder.scenario_ms_p99"] = percentile(run_ms, 99.0);
  r.info["scenario_samples"] = static_cast<double>(run_ms.size());
  r.info["scenario_tail_percentile_supported"] =
      tail_percentile_for(run_ms.size());
  r.metrics["sim.builder.thread_busy_ratio"] =
      busy / (static_cast<double>(t1 - t0) * kSweepThreads);
  r.metrics["sim.builder.oracle_share"] = busy > 0.0 ? oracle / busy : 0.0;
  const double traced_fps =
      static_cast<double>(out.frames) / (static_cast<double>(t1 - t0) / 1e9);

  // Hot-path layers on the Table I cell (h264, 25 fps) for each governor,
  // replayed in-process.
  HotPath hp;
  sim::ExperimentSpec spec;
  spec.workload = "h264";
  spec.fps = 25.0;
  spec.frames = frames;
  spec.seed = trace_seed(0);
  for (const std::string& g : kSweepGovernors) {
    Device d = build_device(1, spec, g, trace_seed(0), nullptr);
    const std::uint32_t gspan = tracer.begin("sweep.replay", root);
    (void)traced_device_run(d, 1, spec.seed, spec, "packed", frames, {},
                            tracer, gspan, 4, hp, r.ledger, nullptr);
    tracer.end(gspan);
  }
  tracer.end(root);
  hot_path_metrics(r, hp, 1);
  // Explorations over the whole untraced sweep, not the replayed sample.
  r.metrics["rtm.explorations"] = static_cast<double>(explorations);
  r.metrics["rtm.explore_ratio"] =
      learner_frames ? static_cast<double>(explorations) /
                           static_cast<double>(learner_frames)
                     : 0.0;
  setup_metrics(r, setup.median());
  finish_traced(r, untraced_fps, traced_fps);
  return r;
}

/// Fold \p golden's operations and output checks into \p into.
void merge_checks(Result& into, const Result& golden) {
  into.ledger.attempted += golden.ledger.attempted;
  into.ledger.failed += golden.ledger.failed;
  into.ledger.checks += golden.ledger.checks;
  into.ledger.checks_failed += golden.ledger.checks_failed;
  for (const std::string& f : golden.ledger.failures) {
    into.ledger.failures.push_back("golden: " + f);
  }
}

Result run_one(const Options& opt, Tracer& tracer) {
  if (opt.workload == "solo-stream") return solo_stream(opt, tracer);
  if (opt.workload == "fleet-short") return fleet_short(opt, tracer);
  if (opt.workload == "sinks-4domain") return sinks_4domain(opt, tracer);
  if (opt.workload == "paper-sweep") return paper_sweep(opt, tracer);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

}  // namespace

Result run_workload(const Options& opt, Tracer& tracer) {
  Result r = run_one(opt, tracer);
  if (opt.golden) {
    Options g = opt;
    g.size = "tiny";
    g.seed = 1;
    g.trace = false;
    g.golden = false;
    g.seconds = 0.0;
    g.work_dir = (fs::path(opt.work_dir) / "golden").string();
    Tracer unused;
    const Result golden = run_one(g, unused);
    merge_checks(r, golden);
    r.ledger.check(opt.digests != nullptr &&
                       opt.digests->find(opt.workload, "tiny", 1) != nullptr,
                   opt.workload + ": no recorded tiny seed-1 digest");
    r.golden_digest = golden.digest;
  }
  // From the final ledger, so every failed check counts, golden ones too.
  const double attempted = static_cast<double>(r.ledger.attempted);
  const double ratio =
      attempted > 0 ? static_cast<double>(r.ledger.failed) / attempted : 0.0;
  if (opt.trace) {
    r.metrics["failed_ops_ratio"] = ratio;
    // The traced run reports the per-layer set; its end-to-end figures come
    // from the untraced half and stay as side data.
    for (const std::string& name : end_to_end_names()) {
      r.info[name] = r.metrics[name];
      r.metrics.erase(name);
    }
  } else {
    r.info["failed_ops_ratio"] = ratio;
  }
  return r;
}

}  // namespace perfbench
