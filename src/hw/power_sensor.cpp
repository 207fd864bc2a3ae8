#include "hw/power_sensor.hpp"

#include "common/serial.hpp"

namespace prime::hw {

PowerSensor::PowerSensor(const PowerSensorParams& params, std::uint64_t seed)
    : params_(params), rng_(seed),
      gain_(1.0 + rng_.uniform(-params.gain_error, params.gain_error)) {}

void PowerSensor::save_state(common::StateWriter& out) const {
  rng_.save_state(out);
  out.f64(gain_);
  out.f64(energy_);
}

void PowerSensor::load_state(common::StateReader& in) {
  rng_.load_state(in);
  gain_ = in.f64();
  energy_ = in.f64();
}

}  // namespace prime::hw
