#include "hw/thermal_model.hpp"

#include "common/serial.hpp"

namespace prime::hw {

void ThermalModel::save_state(common::StateWriter& out) const {
  out.f64(temperature_);
}

void ThermalModel::load_state(common::StateReader& in) {
  temperature_ = in.f64();
}

}  // namespace prime::hw
