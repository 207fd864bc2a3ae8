/// \file frame_block.hpp
/// \brief Caller-owned struct-of-arrays batch of frames for the hot loop.
///
/// The engine's per-frame path used to allocate a fresh per-core work vector
/// per frame; a FrameBlock holds a whole batch of frames in contiguous,
/// reused arrays (periods, row-major per-core cycle splits, per-frame demand)
/// so Application::fill_block can populate it once per batch and the engine
/// can walk it allocation-free. Buffers keep their capacity across batches —
/// after the first fill, refilling allocates nothing.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "wl/frame.hpp"

namespace prime::wl {

/// \brief One batch of consecutive frames, split per core.
///
/// Row i describes absolute frame `start + i`: `periods[i]` is its deadline,
/// `row(i)` its per-core cycle split (length `cores`, the same values
/// Application::core_work_into would write), and `demand[i]` the sum of that
/// split — the pre-overhead demand the engine reports per epoch. The split
/// rows are mutable on purpose: the engine adds the governor's processing
/// overhead to a row's core 0 right before running the frame, exactly as the
/// per-frame path mutates its work vector.
struct FrameBlock {
  std::size_t start = 0;      ///< Absolute frame index of row 0.
  std::size_t count = 0;      ///< Rows filled.
  std::size_t cores = 0;      ///< Row stride of `work`.
  double mem_fraction = 0.0;  ///< Application mem-boundedness for the batch.
  std::vector<common::Seconds> periods;  ///< Deadline per frame.
  std::vector<common::Cycles> demand;    ///< Sum of each row (pre-overhead).
  std::vector<common::Cycles> work;      ///< Row-major count x cores split.
  std::vector<FrameDemand> raw;          ///< Streaming pull scratch.

  /// \brief Size the arrays for \p frames rows of \p core_count entries.
  ///        Shrinks logically but never releases capacity, so a block reused
  ///        across batches settles at the largest batch and stays there.
  void reshape(std::size_t frames, std::size_t core_count) {
    count = frames;
    cores = core_count;
    periods.resize(frames);
    demand.resize(frames);
    work.resize(frames * core_count);
    raw.resize(frames);
  }

  /// \brief Per-core split of row \p i (length `cores`).
  [[nodiscard]] common::Cycles* row(std::size_t i) noexcept {
    return work.data() + i * cores;
  }
  [[nodiscard]] const common::Cycles* row(std::size_t i) const noexcept {
    return work.data() + i * cores;
  }
};

}  // namespace prime::wl
