/// \file epoch_step.hpp
/// \brief The one per-domain epoch step both engines execute.
///
/// A board is D DVFS domains; the paper's board is simply D = 1. Each epoch
/// every domain runs its own work vector through hw::Cluster::run_epoch_into
/// and the outcomes combine into one board-level epoch: the frame completes
/// when the slowest domain does (lowest index on ties), windows and
/// temperatures take the max, energy and executed cycles sum, and one
/// power-sensor reading covers the combined epoch. Every combine is seeded
/// from domain 0 rather than from zero, so a single domain reproduces its
/// cluster's own figures bit for bit — including below-zero temperatures.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "hw/cluster.hpp"
#include "hw/platform.hpp"

namespace prime::sim {

/// \brief Board-level outcome of one epoch across every domain.
struct BoardEpoch {
  common::Seconds frame_time = 0.0;   ///< Slowest domain's frame time.
  std::size_t bottleneck = 0;         ///< That domain (lowest index on ties).
  common::Seconds window = 0.0;       ///< Longest domain window.
  common::Joule energy = 0.0;         ///< Summed domain energy.
  common::Cycles executed = 0;        ///< Summed executed cycles.
  common::Celsius temperature = 0.0;  ///< Hottest domain's temperature.
  common::Watt reading = 0.0;         ///< Board power-sensor reading.
};

/// \brief Per-domain work buffers, scratch and the combine, sized once for a
///        platform and reused every epoch (no allocation after the first).
class EpochStep {
 public:
  explicit EpochStep(hw::Platform& platform);

  /// \brief Domain \p d's owned work buffer (one entry per local core).
  [[nodiscard]] common::Cycles* buffer(std::size_t d) {
    return buffers_[d].data();
  }
  /// \brief Zero every owned work buffer.
  void clear();

  /// \brief Run every domain's epoch — domain d executes work[d], which must
  ///        hold one entry per local core — and combine the outcomes.
  const BoardEpoch& run(common::Cycles* const* work, common::Seconds period,
                        double mem_fraction);

  /// \brief Domain \p d's outcome of the last run().
  [[nodiscard]] const hw::EpochScratch& scratch(std::size_t d) const {
    return scratch_[d];
  }
  /// \brief Cycles domain \p d executed in the last run().
  [[nodiscard]] common::Cycles executed(std::size_t d) const {
    return executed_[d];
  }

 private:
  std::vector<hw::Cluster*> clusters_;
  hw::PowerSensor* sensor_;
  std::vector<std::vector<common::Cycles>> buffers_;
  std::vector<hw::EpochScratch> scratch_;
  std::vector<common::Cycles> executed_;
  BoardEpoch board_;
};

}  // namespace prime::sim
