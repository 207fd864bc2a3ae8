/// \file power_model.hpp
/// \brief First-order CMOS power model for the simulated A15 cluster.
///
/// Per-core active power is the classic switching term `C_eff * V^2 * f`
/// (yielding the "cubic reduction" the paper cites for DVFS); idle (WFI)
/// power is a clock-gated fraction of the switching term; leakage is a
/// voltage- and temperature-dependent static term shared per core. The
/// default parameters are calibrated so a fully-loaded 4-core cluster at
/// 2 GHz / 1.3625 V draws ~7.5 W dynamic + ~1.4 W static at 60 degC, in line
/// with published ODROID-XU3 A15 measurements.
#pragma once

#include "common/units.hpp"
#include "hw/opp.hpp"

namespace prime::hw {

/// \brief Tunable parameters of the analytical power model.
struct PowerModelParams {
  /// Effective switched capacitance per core (farads).
  double ceff = 0.50e-9;
  /// Idle (WFI, clocks mostly gated) power as a fraction of active switching
  /// power at the same operating point.
  double idle_fraction = 0.08;
  /// Leakage scale current (amperes) in P_leak = V * i0 * exp(kv*V) * tempf.
  double leak_i0 = 0.05;
  /// Leakage voltage exponent (1/volt).
  double leak_kv = 1.2;
  /// Leakage temperature coefficient (1/degC) around \ref leak_t0.
  double leak_kt = 0.010;
  /// Leakage reference temperature (degC).
  double leak_t0 = 60.0;
  /// Uncore/cluster overhead power (caches, interconnect) when any core is
  /// active, proportional to V^2*f with this capacitance (farads).
  double uncore_ceff = 0.12e-9;
};

/// \brief Evaluates the analytical power model at operating points.
class PowerModel {
 public:
  /// \brief Construct with explicit parameters.
  explicit PowerModel(const PowerModelParams& params = {}) noexcept
      : params_(params) {}

  /// \brief Per-core switching power while actively retiring instructions.
  [[nodiscard]] common::Watt active_power(const Opp& opp) const noexcept;
  /// \brief Per-core power in WFI idle at the given operating point.
  [[nodiscard]] common::Watt idle_power(const Opp& opp) const noexcept;
  /// \brief Per-core leakage power at the given voltage and temperature.
  [[nodiscard]] common::Watt leakage_power(common::Volt v,
                                           common::Celsius t) const noexcept;
  /// \brief The temperature-independent factor of leakage_power():
  ///        `V * i0 * exp(kv*V)`. Hoistable per operating point — leakage at
  ///        temperature t is exactly `leakage_base(v) * clamped tempf(t)`
  ///        (same association order, so the product is bit-identical to
  ///        leakage_power()). The cluster's per-OPP coefficient table caches
  ///        this to keep exp() out of the per-frame path.
  [[nodiscard]] common::Watt leakage_base(common::Volt v) const noexcept;
  /// \brief The clamped temperature factor of leakage_power() at \p t.
  [[nodiscard]] double leakage_tempf(common::Celsius t) const noexcept {
    const double tempf = 1.0 + params_.leak_kt * (t - params_.leak_t0);
    return tempf < 0.1 ? 0.1 : tempf;
  }
  /// \brief Cluster-shared uncore power while the cluster is clocked.
  [[nodiscard]] common::Watt uncore_power(const Opp& opp) const noexcept;

  /// \brief Energy for one core to retire \p cycles at \p opp (active only).
  [[nodiscard]] common::Joule active_energy(const Opp& opp,
                                            common::Cycles cycles) const noexcept;

  /// \brief Access the parameters (for reporting/calibration).
  [[nodiscard]] const PowerModelParams& params() const noexcept { return params_; }

 private:
  PowerModelParams params_;
};

}  // namespace prime::hw
