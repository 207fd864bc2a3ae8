/// \file merge.hpp
/// \brief Deterministic merge of governor learning state: the primitive
///        behind the warm-start policy library's fleet merge.
///
/// A `StateMerger` folds many governors' `save_state()` payloads — or other
/// mergers' serialised accumulators — into one combined learning state. The
/// contract mirrors the fleet layer's `.fsum` merging:
///
///   - **Exact accumulation.** Mergeable table cells accumulate as
///     visit-weight × value products in `common::ExactSum` (128-bit
///     fixed-point) and integer weight sums, so folding is associative,
///     commutative and bit-identical at any grouping — N shards' states merge
///     into the same bytes no matter how the fold tree is shaped.
///   - **Champion carry.** Non-mergeable state (EWMA filters, epsilon
///     schedules, exploration RNG, last-action bookkeeping) cannot be
///     averaged; the merger carries the payload of the *champion* source —
///     most-trained first, payload bytes as the total-order tie-break — so
///     selection is order-invariant too.
///   - **Fail closed.** Folding states with mismatched table geometry (the
///     state-space/action-space skew of differently configured governors)
///     throws StateMergeError; nothing partial is ever extracted.
///
/// One merge path serves every learner. The merger holds a scratch governor
/// of its own configuration (the many-core variants' scratch is many-core,
/// so it reads their appended state too) and reads each payload by running
/// its `load_state()`; the payload layout lives only in the governor's own
/// `load_state()`/`save_state()`. From the loaded governor it takes a
/// `MergeView` (table geometry, cell values, per-cell weights, the payload's
/// training weight, summed counters). To extract, it loads the champion,
/// writes the merged cells back with `MergeableState::set_merged()` and
/// returns the governor's `save_state()`, so every champion byte outside
/// the merged cells is carried verbatim. Governors opt in via
/// `Governor::make_state_merger()`, returning `make_weighted_merger()` over a
/// scratch copy that implements `MergeableState`.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace prime::gov {

class Governor;

/// \brief Error thrown on incompatible or corrupt merge inputs.
class StateMergeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// \brief Accumulates governor state payloads into one merged state.
class StateMerger {
 public:
  virtual ~StateMerger() = default;

  /// \brief Fold one governor's save_state() payload into the accumulator.
  ///        Throws StateMergeError on geometry mismatch or malformed bytes.
  virtual void add_state(const std::string& payload) = 0;

  /// \brief Fold another merger's accumulator() bytes — the exact merge used
  ///        across shards/library entries. Associative with add_state: any
  ///        fold tree over the same leaves yields the same accumulator bits.
  virtual void add_accumulator(const std::string& bytes) = 0;

  /// \brief Serialise the accumulator exactly (ExactSum words, integer
  ///        weights, champion payload) for storage or further merging.
  [[nodiscard]] virtual std::string accumulator() const = 0;

  /// \brief Materialise a load_state() payload from the accumulated state:
  ///        weight-averaged table cells written into the champion's state.
  ///        Throws StateMergeError when nothing has been folded in.
  [[nodiscard]] virtual std::string extract_state() const = 0;

  /// \brief Total visit weight folded in (the provenance number).
  [[nodiscard]] virtual std::uint64_t weight() const noexcept = 0;

  /// \brief Number of leaf states folded in (directly or via accumulators).
  [[nodiscard]] virtual std::uint64_t sources() const noexcept = 0;
};

/// \brief The mergeable part of a loaded learner state.
struct MergeView {
  /// True when the state carries a trained table (a fresh governor that
  /// never decided has no mergeable data and only competes as a champion of
  /// last resort).
  bool has_data = false;
  /// Table geometry (e.g. {states, actions}); must match across sources.
  std::vector<std::uint64_t> dims;
  /// All mergeable cells, concatenated in payload order.
  std::vector<double> values;
  /// Per-cell merge weight (per-cell visit counts, or the state's scalar
  /// training weight replicated). Same size as values.
  std::vector<std::uint64_t> cell_weights;
  /// Scalar training weight of this state (champion order + provenance).
  std::uint64_t weight = 0;
  /// Integer counters summed across sources (e.g. total table updates).
  std::vector<std::uint64_t> counters;
};

/// \brief A governor whose learning state the weighted merger folds.
class MergeableState {
 public:
  virtual ~MergeableState() = default;
  /// \brief The mergeable cells of the state last loaded or learned.
  [[nodiscard]] virtual MergeView merge_view() const = 0;
  /// \brief Overwrite those cells with merged ones. \p merged has this
  ///        state's geometry: averaged values, summed cell weights and
  ///        summed counters.
  virtual void set_merged(const MergeView& merged) = 0;
};

/// \brief The generic visit-weighted merger. \p tag names the accumulator
///        family: folding an accumulator with another tag throws (a
///        governor-family identity check, not a security check). \p scratch
///        is a governor of the merging configuration and must implement
///        MergeableState; the merger loads every payload into it.
[[nodiscard]] std::unique_ptr<StateMerger> make_weighted_merger(
    std::string tag, std::unique_ptr<Governor> scratch);

/// \brief Render table geometry for mismatch errors ("74x19").
[[nodiscard]] std::string describe_dims(const std::vector<std::uint64_t>& dims);

}  // namespace prime::gov
