#include "hw/core.hpp"

#include <algorithm>

#include "common/serial.hpp"

namespace prime::hw {

CoreEpochResult Core::run_epoch(common::Cycles work, const Opp& opp,
                                common::Seconds window,
                                common::Celsius temperature) noexcept {
  CoreEpochResult r;
  r.busy_time = work == 0 ? 0.0 : common::time_for(work, opp.frequency);
  r.idle_time = std::max(0.0, window - r.busy_time);

  const common::Watt p_active = model_->active_power(opp);
  const common::Watt p_idle = model_->idle_power(opp);
  const common::Watt p_leak = model_->leakage_power(opp.voltage, temperature);

  r.energy = p_active * r.busy_time + p_idle * r.idle_time +
             p_leak * (r.busy_time + r.idle_time);

  if (work > 0) pmu_.record_active(work, r.busy_time);
  if (r.idle_time > 0.0) pmu_.record_idle(r.idle_time);
  energy_ += r.energy;
  return r;
}

void Core::reset() noexcept {
  pmu_.reset();
  energy_ = 0.0;
}

void Core::save_state(common::StateWriter& out) const {
  pmu_.save_state(out);
  out.f64(energy_);
}

void Core::load_state(common::StateReader& in) {
  pmu_.load_state(in);
  energy_ = in.f64();
}

}  // namespace prime::hw
