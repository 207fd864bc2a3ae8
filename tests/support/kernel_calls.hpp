/// \file kernel_calls.hpp
/// \brief Vector-returning conveniences over the allocation-free kernel
///        calls, for tests that want one frame's values as a whole.
///
/// The simulator only has the `_into` forms (the batched engine writes into
/// reused buffers). Tests and the reference engine call them through these
/// wrappers, which allocate a fresh result per call.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "hw/cluster.hpp"
#include "wl/application.hpp"

namespace prime::testing_support {

/// \brief Application::core_work_into into a fresh \p cores-entry vector.
inline std::vector<common::Cycles> core_work(const wl::Application& app,
                                             std::size_t frame,
                                             std::size_t cores) {
  std::vector<common::Cycles> work(cores, 0);
  app.core_work_into(frame, cores, work.data());
  return work;
}

/// \brief hw::Cluster::run_epoch_into with a fresh result.
inline hw::ClusterEpochResult run_epoch(
    hw::Cluster& cluster, const std::vector<common::Cycles>& work,
    common::Seconds period, double mem_fraction = 0.0,
    common::Hertz ref_frequency = 1.0e9) {
  hw::ClusterEpochResult r;
  cluster.run_epoch_into(work.data(), work.size(), period, mem_fraction,
                         ref_frequency, r);
  return r;
}

}  // namespace prime::testing_support
