/// \file core.hpp
/// \brief A single simulated CPU core.
///
/// Cores accumulate the busy/idle time of their per-frame cycle budgets into
/// their PMU and tally their own energy. The cluster (not the core) owns the
/// V-F domain and the power model, matching the big.LITTLE A15 cluster where
/// all four cores share one rail and one PLL, so it computes each core's
/// epoch split and hands it to Core::account.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "hw/pmu.hpp"

namespace prime::common {
class StateWriter;
class StateReader;
}  // namespace prime::common

namespace prime::hw {

/// \brief One simulated A15 core.
class Core {
 public:
  /// \brief Construct with an id.
  explicit Core(std::size_t id) noexcept : id_(id) {}

  /// \brief Record an epoch whose busy/idle/energy split the cluster already
  ///        computed (Cluster::run_epoch_into derives the power terms once
  ///        per epoch for all cores): \p work active cycles over
  ///        \p busy_time, WFI for \p idle_time, and \p energy.
  void account(common::Cycles work, common::Seconds busy_time,
               common::Seconds idle_time, common::Joule energy) noexcept {
    if (work > 0) pmu_.record_active(work, busy_time);
    if (idle_time > 0.0) pmu_.record_idle(idle_time);
    energy_ += energy;
  }

  /// \brief Core identifier (0-based).
  [[nodiscard]] std::size_t id() const noexcept { return id_; }
  /// \brief This core's PMU (read-only).
  [[nodiscard]] const Pmu& pmu() const noexcept { return pmu_; }
  /// \brief This core's PMU (for snapshot-based interval reads).
  [[nodiscard]] Pmu& pmu() noexcept { return pmu_; }
  /// \brief Cumulative energy attributed to this core.
  [[nodiscard]] common::Joule total_energy() const noexcept { return energy_; }
  /// \brief Reset PMU and energy accounting.
  void reset() noexcept;

  /// \brief Serialise PMU counters and accumulated energy.
  void save_state(common::StateWriter& out) const;
  /// \brief Restore state written by save_state().
  void load_state(common::StateReader& in);

 private:
  std::size_t id_;
  Pmu pmu_;
  common::Joule energy_ = 0.0;
};

}  // namespace prime::hw
