/// \file pmu.hpp
/// \brief Per-core performance monitoring unit (PMU) emulation.
///
/// The RTM's only view of the workload is the PMU cycle counter (the paper's
/// "CC" state variable) read at decision-epoch boundaries. We emulate the
/// free-running 64-bit counters of the A15 PMU: `Pmu` accumulates, callers
/// take `snapshot()`s and diff them, exactly like `perf_event` interval reads.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace prime::common {
class StateWriter;
class StateReader;
}  // namespace prime::common

namespace prime::hw {

/// \brief Cumulative counter values at a point in time.
struct PmuSnapshot {
  common::Cycles cycles = 0;       ///< CPU cycle counter (busy cycles only).
  common::Cycles ref_cycles = 0;   ///< Wall-clock reference cycles (24 MHz timer ticks scaled).
  std::uint64_t instructions = 0;  ///< Retired-instruction approximation.
  common::Seconds busy_time = 0.0; ///< Accumulated active time.
  common::Seconds idle_time = 0.0; ///< Accumulated WFI time.
};

/// \brief Delta between two snapshots plus derived utilisation.
struct PmuDelta {
  common::Cycles cycles = 0;
  std::uint64_t instructions = 0;
  common::Seconds busy_time = 0.0;
  common::Seconds idle_time = 0.0;

  /// \brief busy / (busy + idle); 0 when no time elapsed. This is the same
  ///        utilisation statistic the ondemand governor samples.
  [[nodiscard]] double utilisation() const noexcept {
    const double total = busy_time + idle_time;
    return total <= 0.0 ? 0.0 : busy_time / total;
  }
};

/// \brief One core's monotonically-increasing event counters.
class Pmu {
 public:
  /// \brief Record \p cycles of active execution taking \p busy seconds,
  ///        with an instructions-per-cycle approximation \p ipc.
  void record_active(common::Cycles cycles, common::Seconds busy,
                     double ipc = 1.2) noexcept {
    snap_.cycles += cycles;
    snap_.instructions += static_cast<std::uint64_t>(static_cast<double>(cycles) * ipc);
    snap_.busy_time += busy;
    snap_.ref_cycles += static_cast<common::Cycles>(busy * 24.0e6);
  }
  /// \brief Record \p idle seconds of WFI.
  void record_idle(common::Seconds idle) noexcept {
    snap_.idle_time += idle;
    snap_.ref_cycles += static_cast<common::Cycles>(idle * 24.0e6);
  }

  /// \brief Current cumulative counter values.
  [[nodiscard]] PmuSnapshot snapshot() const noexcept { return snap_; }
  /// \brief Difference between the current counters and \p since.
  [[nodiscard]] PmuDelta delta_since(const PmuSnapshot& since) const noexcept;
  /// \brief Zero all counters (power-on reset).
  void reset() noexcept { snap_ = PmuSnapshot{}; }

  /// \brief Serialise the cumulative counters (checkpoint/resume).
  void save_state(common::StateWriter& out) const;
  /// \brief Restore counters written by save_state().
  void load_state(common::StateReader& in);

 private:
  PmuSnapshot snap_;
};

}  // namespace prime::hw
