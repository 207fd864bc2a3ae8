/// \file dvfs_driver.hpp
/// \brief DVFS driver emulation: OPP switching with transition cost.
///
/// On the XU3, a cpufreq transition stalls the cluster for on the order of
/// 100 microseconds while the PLL relocks and the PMIC ramps. That stall is
/// one component of the paper's learning/adaptation overhead T_OVH, so we
/// model it explicitly and count transitions for the overhead analysis
/// (Table III).
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "hw/opp.hpp"

namespace prime::common {
class StateWriter;
class StateReader;
}  // namespace prime::common

namespace prime::hw {

/// \brief Parameters of the DVFS transition cost model.
struct DvfsDriverParams {
  /// Cluster stall per frequency change (seconds). XU3-like default.
  common::Seconds transition_latency = common::us(100.0);
  /// Extra latency per 100 MHz of frequency delta (PMIC voltage ramp).
  common::Seconds latency_per_step = common::us(5.0);
};

/// \brief Applies OPP changes to a cluster and accounts their cost.
class DvfsDriver {
 public:
  /// \brief Construct bound to an OPP table, starting at \p initial_index.
  DvfsDriver(const OppTable& table, std::size_t initial_index,
             const DvfsDriverParams& params = {});

  /// \brief Request a switch to \p index (clamped). Returns the stall time
  ///        incurred (zero when already at the requested point).
  common::Seconds set_opp(std::size_t index) noexcept;

  /// \brief Currently applied operating point.
  [[nodiscard]] const Opp& current() const noexcept { return table_->at(index_); }
  /// \brief Index of the current operating point.
  [[nodiscard]] std::size_t current_index() const noexcept { return index_; }
  /// \brief Total number of actual transitions performed.
  [[nodiscard]] std::size_t transition_count() const noexcept { return transitions_; }
  /// \brief Total stall time spent in transitions.
  [[nodiscard]] common::Seconds total_stall() const noexcept { return stall_; }
  /// \brief The bound OPP table.
  [[nodiscard]] const OppTable& table() const noexcept { return *table_; }
  /// \brief Reset counters (keeps the current OPP).
  void reset_counters() noexcept;

  /// \brief Serialise the applied OPP index and transition statistics.
  void save_state(common::StateWriter& out) const;
  /// \brief Restore state written by save_state(). Restores the index
  ///        directly — no transition is counted and no stall is charged.
  void load_state(common::StateReader& in);

 private:
  const OppTable* table_;
  std::size_t index_;
  DvfsDriverParams params_;
  std::size_t transitions_ = 0;
  common::Seconds stall_ = 0.0;
};

}  // namespace prime::hw
