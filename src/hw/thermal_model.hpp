/// \file thermal_model.hpp
/// \brief Lumped RC thermal model of the A15 cluster.
///
/// Single thermal node: `tau * dT/dt = P * R_th - (T - T_amb)`. Integrated
/// per decision epoch with the epoch's average power. The XU3's A15 cluster
/// has a thermal time constant of a few seconds and a junction-to-ambient
/// resistance of a few degC/W; defaults reproduce a ~65 degC steady state at
/// full load. The paper neglects the thermal *constraint* in its comparison
/// (Section III-A) but leakage still depends on temperature, so we model it.
#pragma once

#include <cmath>

#include "common/units.hpp"

namespace prime::common {
class StateWriter;
class StateReader;
}  // namespace prime::common

namespace prime::hw {

/// \brief Parameters of the single-node RC thermal model.
struct ThermalModelParams {
  common::Celsius ambient = 25.0;  ///< Ambient temperature.
  double r_th = 5.0;               ///< Thermal resistance (degC per watt).
  common::Seconds tau = 2.0;       ///< Thermal time constant.
  common::Celsius t_init = 40.0;   ///< Initial die temperature.
  common::Celsius t_max = 95.0;    ///< Throttling trip point (advisory).
};

/// \brief Integrates die temperature across decision epochs.
class ThermalModel {
 public:
  /// \brief Construct with parameters; starts at `params.t_init`.
  explicit ThermalModel(const ThermalModelParams& params = {}) noexcept
      : params_(params), temperature_(params.t_init) {}

  /// \brief Advance the model by \p dt seconds with average power \p p.
  ///        Uses the exact exponential solution of the RC node, so large
  ///        epochs remain stable.
  void step(common::Watt p, common::Seconds dt) noexcept {
    if (dt <= 0.0) return;
    const common::Celsius target = steady_state(p);
    if (dt != memo_dt_) {
      memo_dt_ = dt;
      memo_decay_ = std::exp(-dt / params_.tau);
    }
    temperature_ = target + (temperature_ - target) * memo_decay_;
  }

  /// \brief Current die temperature.
  [[nodiscard]] common::Celsius temperature() const noexcept { return temperature_; }
  /// \brief Steady-state temperature at constant power \p p.
  [[nodiscard]] common::Celsius steady_state(common::Watt p) const noexcept {
    return params_.ambient + p * params_.r_th;
  }
  /// \brief True when above the trip point (callers may throttle).
  [[nodiscard]] bool over_trip() const noexcept { return temperature_ > params_.t_max; }
  /// \brief Reset to the initial temperature.
  void reset() noexcept { temperature_ = params_.t_init; }
  /// \brief Access parameters.
  [[nodiscard]] const ThermalModelParams& params() const noexcept { return params_; }

  /// \brief Serialise the die temperature (checkpoint/resume; parameters are
  ///        configuration).
  void save_state(common::StateWriter& out) const;
  /// \brief Restore the temperature written by save_state().
  void load_state(common::StateReader& in);

 private:
  ThermalModelParams params_;
  common::Celsius temperature_;
  // One-entry decay memo: epochs overwhelmingly share the same wall-clock
  // length (the deadline), so exp(-dt/tau) is cached keyed on the exact dt
  // bits. Derived state only — never serialised, recomputed on first miss.
  common::Seconds memo_dt_ = -1.0;
  double memo_decay_ = 0.0;
};

}  // namespace prime::hw
