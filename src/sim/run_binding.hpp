/// \file run_binding.hpp
/// \brief RunBinding: the live run, as run_simulation hands it to the sinks
///        that need more than the epoch stream.
///
/// A few sinks act on the run itself rather than on its records: a
/// checkpoint sink snapshots the full state, a qlib sink publishes the
/// trained governor, a dashboard reads every domain's OPP and scrolls the
/// run's `.bt` trace. run_simulation calls TelemetrySink::bind(&binding) on
/// every attached sink before the run begins and bind(nullptr) on every exit,
/// so each sink picks what it needs and no sink keeps it past the run.
#pragma once

#include <string>

#include "gov/governor.hpp"
#include "hw/platform.hpp"
#include "sim/checkpoint.hpp"
#include "wl/application.hpp"

namespace prime::sim {

/// \brief What a sink may read from the running simulation. Valid from
///        bind(&binding) until bind(nullptr).
struct RunBinding {
  const hw::Platform& platform;
  const wl::Application& app;
  const gov::Governor& governor;
  /// Full-state snapshot of the run; empty on boards that cannot checkpoint
  /// (the format stores one pending observation, so more than one DVFS
  /// domain is rejected).
  CheckpointSnapshotFn snapshot;
  /// The live `.bt` of the first bintrace sink to bind; "" when none has.
  /// The one field sinks write.
  mutable std::string trace_path;
};

}  // namespace prime::sim
