#include "fleet/summary.hpp"

#include <stdexcept>

#include "common/sealed.hpp"
#include "common/serial.hpp"

namespace prime::fleet {

namespace {

constexpr common::SealedFormat kFormat{
    kShardSummaryMagic, kShardSummaryVersion, "shard summary",
    "shard summary", &common::throw_as<FleetError>};

}  // namespace

CellStats::CellStats()
    : energy_hist(0.0, 1.0, 1), miss_hist(0.0, 1.0, 1), perf_hist(0.0, 1.0, 1) {}

CellStats::CellStats(const PopulationSpec& pop)
    : energy_hist(0.0, pop.resolved_energy_hi(), pop.energy_bins),
      miss_hist(0.0, 1.0, pop.miss_bins),
      perf_hist(0.0, pop.perf_hi, pop.perf_bins) {}

void CellStats::add_device(const sim::RunResult& result) {
  ++devices;
  run.merge(result);
  const double performance = result.mean_normalized_performance();
  const double miss_rate = result.miss_rate();
  const double power = result.mean_power();
  energy_sum.add(result.total_energy);
  time_sum.add(result.total_time);
  perf_sum.add(performance);
  power_sum.add(power);
  miss_sum.add(miss_rate);
  energy_hist.add(result.total_energy);
  miss_hist.add(miss_rate);
  perf_hist.add(performance);
}

void CellStats::merge(const CellStats& other) {
  // Histogram::merge throws on geometry mismatch before any state changes,
  // so check all three up front to keep *this untouched on failure.
  if (!energy_hist.bin_compatible(other.energy_hist) ||
      !miss_hist.bin_compatible(other.miss_hist) ||
      !perf_hist.bin_compatible(other.perf_hist)) {
    throw std::invalid_argument(
        "CellStats::merge: histogram geometry mismatch — the shards were not "
        "produced by the same population");
  }
  // Sum into copies: an overflow (a corrupt or forged summary) throws
  // before anything changes.
  common::ExactSum energy = energy_sum, time = time_sum, perf = perf_sum,
                   power = power_sum, miss = miss_sum;
  try {
    energy += other.energy_sum;
    time += other.time_sum;
    perf += other.perf_sum;
    power += other.power_sum;
    miss += other.miss_sum;
  } catch (const std::overflow_error& e) {
    throw FleetError(std::string("CellStats::merge: ") + e.what());
  }
  devices += other.devices;
  run.merge(other.run);
  energy_sum = energy;
  time_sum = time;
  perf_sum = perf;
  power_sum = power;
  miss_sum = miss;
  energy_hist.merge(other.energy_hist);
  miss_hist.merge(other.miss_hist);
  perf_hist.merge(other.perf_hist);
}

double CellStats::mean_energy() const noexcept {
  return devices == 0 ? 0.0 : energy_sum.value() / static_cast<double>(devices);
}

double CellStats::mean_miss_rate() const noexcept {
  return devices == 0 ? 0.0 : miss_sum.value() / static_cast<double>(devices);
}

double CellStats::mean_performance() const noexcept {
  return devices == 0 ? 0.0 : perf_sum.value() / static_cast<double>(devices);
}

double CellStats::mean_power() const noexcept {
  return devices == 0 ? 0.0 : power_sum.value() / static_cast<double>(devices);
}

void CellStats::save_state(common::StateWriter& out) const {
  out.u64(devices);
  out.str(run.governor);
  out.str(run.application);
  run.save_state(out);
  energy_sum.save_state(out);
  time_sum.save_state(out);
  perf_sum.save_state(out);
  power_sum.save_state(out);
  miss_sum.save_state(out);
  energy_hist.save_state(out);
  miss_hist.save_state(out);
  perf_hist.save_state(out);
}

void CellStats::load_state(common::StateReader& in) {
  devices = in.u64();
  run.governor = in.str();
  run.application = in.str();
  run.load_state(in);
  energy_sum.load_state(in);
  time_sum.load_state(in);
  perf_sum.load_state(in);
  power_sum.load_state(in);
  miss_sum.load_state(in);
  energy_hist.load_state(in);
  miss_hist.load_state(in);
  perf_hist.load_state(in);
}

void ShardSummary::write(std::ostream& out) const {
  const auto payload = [&](common::StateWriter& w) {
    w.u64(fingerprint);
    w.size(shard.device_begin);
    w.size(shard.device_end);
    w.u64(next_device);
    w.u64(started_at_device);
    w.size(cells.size());
    for (const auto& [cell_index, stats] : cells) {
      w.u64(cell_index);
      stats.save_state(w);
    }
    w.size(policies.size());
    for (const auto& [cell_index, policy] : policies) {
      w.u64(cell_index);
      w.boolean(policy.mergeable);
      w.str(policy.shape.governor_name);
      w.u64(policy.shape.opp_count);
      w.u64(policy.shape.core_count);
      w.u64(policy.shape.platform_fingerprint);
      w.u64(policy.epochs);
      w.u64(policy.source_fingerprint);
      w.blob(policy.accumulator);
    }
  };
  common::write_sealed(out, kFormat, {shard.index, shard.count}, payload);
}

ShardSummary ShardSummary::read(std::istream& in, const std::string& label) {
  ShardSummary s;
  const auto payload = [&](common::StateReader& r) {
    s.fingerprint = r.u64();
    s.shard.device_begin = r.size();
    s.shard.device_end = r.size();
    s.next_device = r.u64();
    s.started_at_device = r.u64();
    const std::size_t cell_count = r.size();
    for (std::size_t i = 0; i < cell_count; ++i) {
      const std::uint64_t cell_index = r.u64();
      if (s.cells.count(cell_index) != 0) {
        throw common::SerialError("duplicate cell " +
                                  std::to_string(cell_index));
      }
      s.cells[cell_index].load_state(r);
    }
    const std::size_t policy_count = r.size();
    for (std::size_t i = 0; i < policy_count; ++i) {
      const std::uint64_t cell_index = r.u64();
      if (s.policies.count(cell_index) != 0) {
        throw common::SerialError("duplicate policy record for cell " +
                                  std::to_string(cell_index));
      }
      CellPolicy& policy = s.policies[cell_index];
      policy.mergeable = r.boolean();
      policy.shape.governor_name = r.str();
      policy.shape.opp_count = r.u64();
      policy.shape.core_count = r.u64();
      policy.shape.platform_fingerprint = r.u64();
      policy.epochs = r.u64();
      policy.source_fingerprint = r.u64();
      policy.accumulator = r.blob();
    }
  };
  const common::SealedWords words =
      common::read_sealed(in, kFormat, label, payload);
  s.shard.index = static_cast<std::size_t>(words[0]);
  s.shard.count = static_cast<std::size_t>(words[1]);
  if (s.shard.device_end < s.shard.device_begin ||
      s.next_device < s.shard.device_begin ||
      s.next_device > s.shard.device_end ||
      s.started_at_device < s.shard.device_begin ||
      s.started_at_device > s.next_device) {
    kFormat.reject(label, "inconsistent device range [" +
                              std::to_string(s.shard.device_begin) + ", " +
                              std::to_string(s.shard.device_end) +
                              ") with progress " +
                              std::to_string(s.next_device));
  }
  return s;
}

void ShardSummary::save_file(const std::string& path) const {
  common::save_sealed_file(path, kFormat,
                           [&](std::ostream& out) { write(out); });
}

ShardSummary ShardSummary::load_file(const std::string& path) {
  ShardSummary s;
  common::load_sealed_file(path, kFormat,
                           [&](std::istream& in) { s = read(in, path); });
  return s;
}

std::string shard_summary_path(const std::string& out_dir,
                               std::size_t shard_index) {
  return out_dir + "/shard-" + std::to_string(shard_index) + ".fsum";
}

std::string shard_checkpoint_path(const std::string& out_dir,
                                  std::size_t shard_index) {
  return out_dir + "/shard-" + std::to_string(shard_index) + ".ckpt";
}

}  // namespace prime::fleet
