/// \file core.hpp
/// \brief A single simulated CPU core.
///
/// Cores execute per-frame cycle budgets at the cluster's operating point,
/// accumulate busy/idle time into their PMU, and tally their own energy. The
/// cluster (not the core) owns the V-F domain, matching the big.LITTLE A15
/// cluster where all four cores share one rail and one PLL.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "hw/opp.hpp"
#include "hw/pmu.hpp"
#include "hw/power_model.hpp"

namespace prime::common {
class StateWriter;
class StateReader;
}  // namespace prime::common

namespace prime::hw {

/// \brief Result of one core executing within one epoch window.
struct CoreEpochResult {
  common::Seconds busy_time = 0.0;  ///< Time spent actively executing.
  common::Seconds idle_time = 0.0;  ///< Time spent in WFI within the window.
  common::Joule energy = 0.0;       ///< Dynamic + idle energy (no shared terms).
};

/// \brief One simulated A15 core.
class Core {
 public:
  /// \brief Construct with an id and a shared power model.
  Core(std::size_t id, const PowerModel& model) noexcept
      : id_(id), model_(&model) {}

  /// \brief Execute \p work cycles at \p opp inside an epoch window of
  ///        \p window seconds (busy first, then WFI for the remainder).
  ///        The busy time may exceed the window when overloaded; idle is then
  ///        zero. Updates the PMU and energy counters and returns the split.
  CoreEpochResult run_epoch(common::Cycles work, const Opp& opp,
                            common::Seconds window,
                            common::Celsius temperature) noexcept;

  /// \brief Record an epoch whose busy/idle/energy split was already computed
  ///        by the caller (the cluster's coefficient-hoisted batch path):
  ///        updates the PMU and energy counters exactly as run_epoch() would
  ///        for the same values, without re-deriving power terms per core.
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
  const PowerModel* model_;
  Pmu pmu_;
  common::Joule energy_ = 0.0;
};

}  // namespace prime::hw
