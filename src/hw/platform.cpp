#include "hw/platform.hpp"

#include <stdexcept>

#include "common/hash.hpp"
#include "common/serial.hpp"

namespace prime::hw {

Platform::Platform(OppTable table, const ClusterParams& cluster_params,
                   const PowerSensorParams& sensor_params,
                   std::uint64_t sensor_seed, std::size_t clusters)
    : table_(std::move(table)), sensor_(sensor_params, sensor_seed) {
  if (clusters == 0) {
    throw std::invalid_argument("Platform: at least one cluster required");
  }
  clusters_.reserve(clusters);
  for (std::size_t d = 0; d < clusters; ++d) {
    clusters_.push_back(std::make_unique<Cluster>(table_, cluster_params));
  }
  total_cores_ = clusters * cluster_params.cores;
}

std::unique_ptr<Platform> Platform::odroid_xu3_a15(std::uint64_t sensor_seed) {
  ClusterParams params;
  params.cores = 4;
  // Start at the table midpoint like cpufreq does after boot.
  params.initial_opp = 9;  // 1100 MHz
  auto platform = std::make_unique<Platform>(OppTable::odroid_xu3_a15(), params,
                                             PowerSensorParams{}, sensor_seed);
  platform->set_name("odroid-xu3-a15");
  return platform;
}

std::unique_ptr<Platform> Platform::from_config(const common::Config& cfg) {
  const std::size_t clusters = cfg.get_count("hw.clusters", 1);
  const std::size_t cores = cfg.get_count("hw.cores", 4);
  const std::size_t opps = cfg.get_count("hw.opps", 19);
  const double fmin = cfg.get_double("hw.fmin_mhz", 200.0);
  const double fmax = cfg.get_double("hw.fmax_mhz", 2000.0);

  OppTable table = (opps == 19 && fmin == 200.0 && fmax == 2000.0)
                       ? OppTable::odroid_xu3_a15()
                       : OppTable::linear(opps, common::mhz(fmin),
                                          common::mhz(fmax), 0.9, 1.3625);

  ClusterParams params;
  params.cores = cores;
  params.power.ceff = cfg.get_double("hw.ceff", params.power.ceff);
  params.power.idle_fraction =
      cfg.get_double("hw.idle_fraction", params.power.idle_fraction);
  params.thermal.ambient = cfg.get_double("hw.ambient", params.thermal.ambient);
  params.initial_opp = table.size() / 2;

  const std::uint64_t seed = cfg.get_count("hw.sensor_seed", 0xC0FFEE, 0);
  auto platform = std::make_unique<Platform>(std::move(table), params,
                                             PowerSensorParams{}, seed,
                                             clusters);
  platform->set_name(cfg.get_string("hw.name", "sim-board"));
  return platform;
}

std::uint64_t Platform::shape_fingerprint() const noexcept {
  common::Fnv1a64 h;
  h.u64(static_cast<std::uint64_t>(total_cores_));
  h.u64(static_cast<std::uint64_t>(table_.size()));
  for (const Opp& opp : table_.points()) {
    h.f64(opp.frequency);
    h.f64(opp.voltage);
  }
  // Domain structure only enters the hash on multi-domain boards: a 2x4
  // platform must never share `.ckpt`/`.qpol` keys with a 1x8 one (per-domain
  // decisions make learned state non-interchangeable), while single-domain
  // fingerprints stay exactly the historical value.
  if (clusters_.size() > 1) {
    h.u64(static_cast<std::uint64_t>(clusters_.size()));
    for (const auto& c : clusters_) {
      h.u64(static_cast<std::uint64_t>(c->core_count()));
    }
  }
  return h.value();
}

void Platform::reset() {
  for (const auto& c : clusters_) c->reset();
  sensor_.reset();
}

void Platform::save_state(std::ostream& out) const {
  common::StateWriter w(out);
  for (const auto& c : clusters_) c->save_state(w);
  sensor_.save_state(w);
}

void Platform::load_state(std::istream& in) {
  common::StateReader r(in);
  for (const auto& c : clusters_) c->load_state(r);
  sensor_.load_state(r);
}

}  // namespace prime::hw
