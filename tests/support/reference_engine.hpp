/// \file reference_engine.hpp
/// \brief The per-frame reference loop the batched engine is pinned against.
///
/// The engine's pre-batching epoch loop, kept in the test tree as an
/// independent oracle: one allocating core_work() vector and one
/// allocating run_epoch() result per frame (support/kernel_calls.hpp), no FrameBlock, no placement scatter,
/// no shared epoch step. Differential tests compare run_simulation() against
/// it bit for bit. Single-domain boards only, and no checkpoint, resume or
/// warm start (std::invalid_argument otherwise) — those are engine features
/// the oracle has no independent form of.
#pragma once

#include "sim/engine.hpp"

namespace prime::sim {

/// \brief Run \p app on \p platform under \p governor with the per-frame
///        reference loop. Honours max_frames, sinks and the reset_* flags of
///        \p options exactly as run_simulation() does.
RunResult run_reference_simulation(hw::Platform& platform,
                                   const wl::Application& app,
                                   gov::Governor& governor,
                                   const RunOptions& options = {});

}  // namespace prime::sim
