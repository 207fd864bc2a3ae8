#include "hw/pmu.hpp"

#include "common/serial.hpp"

namespace prime::hw {

PmuDelta Pmu::delta_since(const PmuSnapshot& since) const noexcept {
  PmuDelta d;
  d.cycles = snap_.cycles - since.cycles;
  d.instructions = snap_.instructions - since.instructions;
  d.busy_time = snap_.busy_time - since.busy_time;
  d.idle_time = snap_.idle_time - since.idle_time;
  return d;
}

void Pmu::save_state(common::StateWriter& out) const {
  out.u64(snap_.cycles);
  out.u64(snap_.ref_cycles);
  out.u64(snap_.instructions);
  out.f64(snap_.busy_time);
  out.f64(snap_.idle_time);
}

void Pmu::load_state(common::StateReader& in) {
  snap_.cycles = in.u64();
  snap_.ref_cycles = in.u64();
  snap_.instructions = in.u64();
  snap_.busy_time = in.f64();
  snap_.idle_time = in.f64();
}

}  // namespace prime::hw
