#include "fleet/population.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace prime::fleet {
namespace {

/// Round-trip double rendering: 17 significant digits reproduce the exact
/// bits through strtod, so to_args() parsed back through from_config builds
/// a fingerprint-identical population.
std::string format_exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::vector<double> parse_double_list(const std::string& text,
                                      const char* key) {
  std::vector<double> out;
  for (const auto& field : common::split(text, ',')) {
    const std::string token = common::trim(field);
    if (token.empty()) continue;
    const char* begin = token.c_str();
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin || *end != '\0') {
      throw std::invalid_argument("PopulationSpec: cannot parse '" + token +
                                  "' in " + key + "=");
    }
    out.push_back(value);
  }
  return out;
}

}  // namespace

std::size_t PopulationSpec::cell_count() const noexcept {
  return workloads.size() * fps.size() * governors.size();
}

std::size_t PopulationSpec::device_count() const noexcept {
  return cell_count() * devices_per_cell;
}

CellCoords PopulationSpec::cell(std::size_t cell_index) const {
  if (cell_index >= cell_count()) {
    throw std::out_of_range("PopulationSpec::cell: index " +
                            std::to_string(cell_index) + " of " +
                            std::to_string(cell_count()) + " cells");
  }
  // Workload-major, then fps, then governor — the builder's scenario order.
  CellCoords coords;
  coords.index = cell_index;
  coords.governor = governors[cell_index % governors.size()];
  const std::size_t rest = cell_index / governors.size();
  coords.fps = fps[rest % fps.size()];
  coords.workload = workloads[rest / fps.size()];
  return coords;
}

DeviceSpec PopulationSpec::device(std::size_t index) const {
  if (index >= device_count()) {
    throw std::out_of_range("PopulationSpec::device: index " +
                            std::to_string(index) + " of " +
                            std::to_string(device_count()) + " devices");
  }
  DeviceSpec dev;
  dev.index = index;
  dev.cell = index / devices_per_cell;
  dev.replica = index % devices_per_cell;
  const CellCoords coords = cell(dev.cell);
  dev.governor = coords.governor;
  dev.workload = coords.workload;
  dev.fps = coords.fps;
  // Three derived streams per device, all functions of the population-wide
  // index only — shard boundaries can never perturb a device's trajectory.
  dev.trace_seed = common::derive_seed(base_seed, 3 * index);
  dev.governor_seed = common::derive_seed(base_seed, 3 * index + 1);
  dev.platform_seed = common::derive_seed(base_seed, 3 * index + 2);
  return dev;
}

double PopulationSpec::resolved_energy_hi() const noexcept {
  return energy_hi > 0.0 ? energy_hi
                         : static_cast<double>(frames == 0 ? 1 : frames);
}

void PopulationSpec::validate() const {
  if (governors.empty()) {
    throw std::invalid_argument("PopulationSpec: no governors");
  }
  if (workloads.empty()) {
    throw std::invalid_argument("PopulationSpec: no workloads");
  }
  if (fps.empty()) throw std::invalid_argument("PopulationSpec: no fps");
  for (const double f : fps) {
    if (!(f > 0.0)) {
      throw std::invalid_argument("PopulationSpec: fps must be > 0");
    }
  }
  if (devices_per_cell == 0) {
    throw std::invalid_argument("PopulationSpec: devices_per_cell must be >= 1");
  }
  if (frames == 0) {
    throw std::invalid_argument("PopulationSpec: frames must be >= 1");
  }
  if (energy_bins == 0 || miss_bins == 0 || perf_bins == 0) {
    throw std::invalid_argument("PopulationSpec: histogram bins must be >= 1");
  }
  if (energy_hi < 0.0 || !(perf_hi > 0.0)) {
    throw std::invalid_argument("PopulationSpec: bad histogram range");
  }
}

std::vector<std::string> PopulationSpec::to_args() const {
  std::vector<std::string> args;
  args.push_back("governors=" + common::join(governors, ","));
  args.push_back("workloads=" + common::join(workloads, ","));
  std::vector<std::string> rates;
  rates.reserve(fps.size());
  for (const double f : fps) rates.push_back(format_exact(f));
  args.push_back("fps=" + common::join(rates, ","));
  args.push_back("devices-per-cell=" + std::to_string(devices_per_cell));
  args.push_back("frames=" + std::to_string(frames));
  args.push_back(std::string("stream=") + (stream ? "1" : "0"));
  args.push_back("seed=" + std::to_string(base_seed));
  args.push_back("util=" + format_exact(target_utilisation));
  args.push_back("energy-hi=" + format_exact(resolved_energy_hi()));
  args.push_back("energy-bins=" + std::to_string(energy_bins));
  args.push_back("miss-bins=" + std::to_string(miss_bins));
  args.push_back("perf-hi=" + format_exact(perf_hi));
  args.push_back("perf-bins=" + std::to_string(perf_bins));
  return args;
}

PopulationSpec PopulationSpec::from_config(const common::Config& cfg) {
  PopulationSpec pop;
  pop.governors = common::split_spec_list(cfg.get_string("governors", ""));
  pop.workloads = common::split_spec_list(cfg.get_string("workloads", ""));
  if (cfg.has("fps")) {
    pop.fps = parse_double_list(cfg.get_string("fps", ""), "fps");
  }
  pop.devices_per_cell = cfg.get_count("devices-per-cell", 1);
  pop.frames = cfg.get_count("frames", 1000);
  pop.stream = cfg.get_bool("stream", true);
  pop.base_seed = cfg.get_count("seed", 42, 0);
  pop.target_utilisation = cfg.get_double("util", 0.45);
  pop.energy_hi = cfg.get_double("energy-hi", 0.0);
  pop.energy_bins = cfg.get_count("energy-bins", 4096);
  pop.miss_bins = cfg.get_count("miss-bins", 1000);
  pop.perf_hi = cfg.get_double("perf-hi", 2.0);
  pop.perf_bins = cfg.get_count("perf-bins", 1000);
  pop.validate();
  return pop;
}

std::uint64_t PopulationSpec::fingerprint() const {
  // FNV-1a 64 over the canonical encoding, fields separated by '\n' (a byte
  // that cannot occur inside the tokens).
  common::Fnv1a64 h;
  for (const auto& arg : to_args()) h.token(arg);
  return h.value();
}

ShardPlan::ShardPlan(std::size_t device_count, std::size_t shard_count)
    : devices_(device_count), shards_(shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("ShardPlan: shard_count must be >= 1");
  }
}

Shard ShardPlan::shard(std::size_t index) const {
  if (index >= shards_) {
    throw std::out_of_range("ShardPlan::shard: index " +
                            std::to_string(index) + " of " +
                            std::to_string(shards_) + " shards");
  }
  const std::size_t base = devices_ / shards_;
  const std::size_t extra = devices_ % shards_;
  Shard s;
  s.index = index;
  s.count = shards_;
  // The first `extra` shards take base+1 devices; offsets follow in closed
  // form so shard(i) is O(1) and trivially tiles the index range.
  s.device_begin = index * base + std::min(index, extra);
  s.device_end = s.device_begin + base + (index < extra ? 1 : 0);
  return s;
}

std::vector<Shard> ShardPlan::shards() const {
  std::vector<Shard> out;
  out.reserve(shards_);
  for (std::size_t i = 0; i < shards_; ++i) out.push_back(shard(i));
  return out;
}

}  // namespace prime::fleet
