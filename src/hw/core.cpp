#include "hw/core.hpp"

#include "common/serial.hpp"

namespace prime::hw {

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
