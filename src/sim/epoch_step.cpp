#include "sim/epoch_step.hpp"

#include <algorithm>
#include <numeric>

namespace prime::sim {

EpochStep::EpochStep(hw::Platform& platform)
    : clusters_(platform.domain_count()),
      sensor_(&platform.power_sensor()),
      buffers_(platform.domain_count()),
      scratch_(platform.domain_count()),
      executed_(platform.domain_count(), 0) {
  for (std::size_t d = 0; d < buffers_.size(); ++d) {
    clusters_[d] = &platform.domain(d);
    buffers_[d].resize(clusters_[d]->core_count());
  }
}

void EpochStep::clear() {
  for (auto& buffer : buffers_) {
    std::fill(buffer.begin(), buffer.end(), common::Cycles{0});
  }
}

const BoardEpoch& EpochStep::run(common::Cycles* const* work,
                                 common::Seconds period, double mem_fraction) {
  for (std::size_t d = 0; d < scratch_.size(); ++d) {
    hw::EpochScratch& sc = scratch_[d];
    clusters_[d]->run_epoch_into(work[d], buffers_[d].size(), period,
                                 mem_fraction, 1.0e9, sc);
    executed_[d] = std::accumulate(sc.core_cycles.begin(),
                                   sc.core_cycles.end(), common::Cycles{0});
    if (d == 0) {
      board_.frame_time = sc.frame_time;
      board_.bottleneck = 0;
      board_.window = sc.window;
      board_.energy = sc.energy;
      board_.executed = executed_[0];
      board_.temperature = sc.temperature;
      continue;
    }
    if (sc.frame_time > board_.frame_time) {
      board_.frame_time = sc.frame_time;
      board_.bottleneck = d;
    }
    board_.window = std::max(board_.window, sc.window);
    board_.temperature = std::max(board_.temperature, sc.temperature);
    board_.energy += sc.energy;
    board_.executed += executed_[d];
  }
  // One board-level sensor reading over the combined epoch: total energy
  // spread over the longest domain window (on one domain, exactly the
  // cluster's own avg_power quotient).
  const common::Watt avg_power =
      board_.window > 0.0 ? board_.energy / board_.window : 0.0;
  board_.reading = sensor_->integrate(avg_power, board_.window);
  return board_;
}

}  // namespace prime::sim
