#include "support/format_artefacts.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/serial.hpp"
#include "fleet/driver.hpp"
#include "fleet/population.hpp"
#include "fleet/runner.hpp"
#include "gov/merge.hpp"
#include "hw/platform.hpp"
#include "qlib/policy.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"

namespace prime::testing_support {
namespace {

std::string scratch_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "format-artefacts/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Copies the checkpoint file once the checkpoint sink ahead of it in the
/// sink list has written the snapshot after frame \p at.
class CaptureAfterFrame : public sim::TelemetrySink {
 public:
  CaptureAfterFrame(std::string path, std::size_t at)
      : path_(std::move(path)), at_(at) {}
  void on_epoch(const sim::EpochRecord& record, gov::Governor&) override {
    if (record.epoch + 1 == at_) bytes_ = read_file(path_);
  }
  [[nodiscard]] const std::string& bytes() const { return bytes_; }

 private:
  std::string path_;
  std::size_t at_;
  std::string bytes_;
};

std::vector<Artefact> build_checkpoints() {
  constexpr std::size_t kFrames = 200;
  const std::string dir = scratch_dir("ckpt");
  std::vector<Artefact> out;
  for (const std::string& name : sim::governor_names()) {
    const auto platform = hw::Platform::odroid_xu3_a15();
    sim::ExperimentSpec spec;
    spec.workload = "h264";
    spec.fps = 30.0;
    spec.frames = kFrames;
    spec.stream = true;
    const wl::Application app = sim::make_application(spec, *platform);
    const auto governor = sim::make_governor(name);
    const std::string path = dir + "/" + std::to_string(out.size()) + ".ckpt";
    sim::CheckpointSink checkpoint(path, kCheckpointFrame);
    CaptureAfterFrame capture(path, kCheckpointFrame);
    sim::RunOptions options;
    options.max_frames = kFrames;
    options.sinks = {&checkpoint, &capture};
    (void)sim::run_simulation(*platform, app, *governor, options);
    out.push_back({name, capture.bytes()});
  }
  return out;
}

qlib::PolicyEntry train_leaf(const hw::Platform& platform,
                             std::uint64_t gov_seed, std::uint64_t trace_seed) {
  sim::ExperimentSpec spec;
  spec.workload = "mpeg4";
  spec.fps = 25.0;
  spec.frames = 200;
  spec.seed = trace_seed;
  const wl::Application app = sim::make_application(spec, platform);
  const auto governor = sim::make_governor("rtm", gov_seed);
  const sim::RunResult run = sim::run_simulation(
      const_cast<hw::Platform&>(platform), app, *governor);
  return qlib::make_leaf_entry(platform, *governor, "mpeg4", 25.0, "rtm",
                               run.epoch_count);
}

std::vector<Artefact> build_policies() {
  const std::string dir = scratch_dir("qpol");
  const auto platform = hw::Platform::odroid_xu3_a15();
  const qlib::PolicyEntry a = train_leaf(*platform, 1, 2);
  const qlib::PolicyEntry b = train_leaf(*platform, 3, 4);
  const qlib::PolicyEntry merged = qlib::merge_entries({a, b});
  a.save_file(dir + "/leaf.qpol");
  merged.save_file(dir + "/merged.qpol");

  // The fleet-merged entry FleetDriver::merge_shards writes: one rtm cell
  // split over two in-process shards.
  fleet::PopulationSpec pop;
  pop.governors = {"rtm"};
  pop.workloads = {"flat(mean=2e8,cv=0.1)"};
  pop.fps = {30.0};
  pop.devices_per_cell = 3;
  pop.frames = 20;
  pop.base_seed = 7;
  pop.energy_bins = 16;
  pop.miss_bins = 8;
  pop.perf_bins = 8;
  fleet::FleetOptions options;
  options.shards = 2;
  options.workers = 0;
  options.out_dir = scratch_dir("fleet");
  fleet::FleetDriver driver(options);
  const fleet::PopulationReport report = driver.run(pop);

  return {{"leaf", read_file(dir + "/leaf.qpol")},
          {"merged", read_file(dir + "/merged.qpol")},
          {"fleet", read_file(report.rows.at(0).policy_path)}};
}

std::vector<Artefact> build_summaries() {
  fleet::PopulationSpec pop;
  pop.governors = {"rtm", "performance"};
  pop.workloads = {"flat(mean=2e8,cv=0.1)"};
  pop.fps = {30.0};
  pop.devices_per_cell = 2;
  pop.frames = 20;
  pop.base_seed = 99;
  pop.energy_bins = 16;
  pop.miss_bins = 8;
  pop.perf_bins = 8;
  fleet::Shard shard;
  shard.index = 0;
  shard.count = 1;
  shard.device_begin = 0;
  shard.device_end = pop.device_count();
  fleet::ShardRunnerOptions opts;
  opts.summary_path = scratch_dir("fsum") + "/shard-0.fsum";
  (void)fleet::run_shard(pop, shard, opts);
  return {{"shard", read_file(opts.summary_path)}};
}

std::string saved_state(const gov::Governor& governor) {
  std::ostringstream out(std::ios::binary);
  governor.save_state(out);
  return out.str();
}

/// The state of governor \p name after 150 frames of mpeg4 at 25 fps.
std::string trained_state(const std::string& name, std::uint64_t seed) {
  const auto platform = hw::Platform::odroid_xu3_a15();
  sim::ExperimentSpec spec;
  spec.workload = "mpeg4";
  spec.fps = 25.0;
  spec.frames = 150;
  spec.seed = seed + 100;
  const wl::Application app = sim::make_application(spec, *platform);
  const auto governor = sim::make_governor(name, seed);
  (void)sim::run_simulation(*platform, app, *governor);
  return saved_state(*governor);
}

std::vector<Artefact> build_mergers() {
  std::vector<Artefact> out;
  for (const std::string& name : sim::governor_names()) {
    const auto governor = sim::make_governor(name);
    if (governor->make_state_merger() == nullptr) continue;
    const std::string untrained = saved_state(*governor);
    const std::string a = trained_state(name, 1);
    const std::string b = trained_state(name, 2);
    std::ostringstream bytes(std::ios::binary);
    common::StateWriter w(bytes);
    for (const auto& fold : std::vector<std::vector<std::string>>{
             {a, b}, {untrained, a}, {untrained}}) {
      const auto merger = governor->make_state_merger();
      for (const std::string& payload : fold) merger->add_state(payload);
      w.blob(merger->accumulator());
      w.blob(merger->extract_state());
    }
    out.push_back({name, bytes.str()});
  }
  return out;
}

}  // namespace

const std::vector<Artefact>& checkpoint_artefacts() {
  static const std::vector<Artefact> artefacts = build_checkpoints();
  return artefacts;
}

const std::vector<Artefact>& policy_artefacts() {
  static const std::vector<Artefact> artefacts = build_policies();
  return artefacts;
}

const std::vector<Artefact>& summary_artefacts() {
  static const std::vector<Artefact> artefacts = build_summaries();
  return artefacts;
}

const std::vector<Artefact>& merger_artefacts() {
  static const std::vector<Artefact> artefacts = build_mergers();
  return artefacts;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace prime::testing_support
