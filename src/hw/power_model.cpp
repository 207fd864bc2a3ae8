#include "hw/power_model.hpp"

#include <cmath>

namespace prime::hw {

using common::Celsius;
using common::Cycles;
using common::Joule;
using common::Volt;
using common::Watt;

Watt PowerModel::active_power(const Opp& opp) const noexcept {
  return params_.ceff * opp.voltage * opp.voltage * opp.frequency;
}

Watt PowerModel::idle_power(const Opp& opp) const noexcept {
  return params_.idle_fraction * active_power(opp);
}

Watt PowerModel::leakage_power(Volt v, Celsius t) const noexcept {
  // `(v * i0 * exp(kv*v)) * tempf` associates left-to-right, so splitting at
  // the temperature factor keeps the product bit-identical to the original
  // single expression — the invariant the per-OPP coefficient hoist relies on.
  return leakage_base(v) * leakage_tempf(t);
}

Watt PowerModel::leakage_base(Volt v) const noexcept {
  return v * params_.leak_i0 * std::exp(params_.leak_kv * v);
}

Watt PowerModel::uncore_power(const Opp& opp) const noexcept {
  return params_.uncore_ceff * opp.voltage * opp.voltage * opp.frequency;
}

Joule PowerModel::active_energy(const Opp& opp, Cycles cycles) const noexcept {
  // E = P * t = Ceff V^2 f * (cycles/f) = Ceff V^2 cycles: frequency cancels,
  // which is exactly why voltage scaling (not frequency alone) saves energy.
  return params_.ceff * opp.voltage * opp.voltage * static_cast<double>(cycles);
}

}  // namespace prime::hw
