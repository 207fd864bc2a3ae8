/// \file placement.hpp
/// \brief Spatial partitioning of an application's work across DVFS domains.
///
/// A multi-domain hw::Platform (hw.clusters > 1) exposes N independent V-F
/// domains; the engine still splits each frame's demand across the board's
/// total core count ("work slots"). The placement layer decides which slot
/// executes on which physical (domain, local core) — a bijection between the
/// slot index space and the board's cores, in the style of the
/// rectangle/graph-partitioning workload placement validated by
/// `validateWorkloads`-style exact-cover checks in NPU compilers. Because the
/// application concentrates its work in the first min(threads, cores) slots,
/// the mapping determines how load spreads over domains, and with it what
/// each per-domain governor sees and decides.
///
/// Policies are registry-selectable (`placement=packed|spread|rect`) and
/// deterministic:
///   - `packed`  fills domains in order (slots 0..c0-1 on domain 0, ...) —
///     active work concentrates on the fewest domains, letting the rest idle
///     at low V-F.
///   - `spread`  deals slots round-robin across domains — active work
///     spreads evenly, each domain lightly loaded.
///   - `rect`    tiles the *loaded* slot prefix into contiguous runs
///     ("rectangles" of the 1-D slot strip), one per domain in order, chosen
///     by dynamic programming to minimise the maximum estimated per-domain
///     load under the per-domain capacity bound; idle slots then fill the
///     remaining capacity in domain order.
///
/// Every placement satisfies the partition-validity contract pinned by
/// tests/test_placement.cpp: exact cover (every core receives exactly one
/// slot, every slot lands on exactly one core), no overlap, and bounds
/// (domain/local indices within the topology).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/registry.hpp"
#include "hw/platform.hpp"
#include "wl/application.hpp"

namespace prime::sim {

/// \brief A validated assignment of work slots to (domain, local core) pairs.
struct Placement {
  std::string policy;                    ///< Policy name that produced it.
  std::vector<std::size_t> slot_domain;  ///< Slot -> owning DVFS domain.
  std::vector<std::size_t> slot_local;   ///< Slot -> local core in the domain.

  /// \brief Number of work slots (= the board's total core count).
  [[nodiscard]] std::size_t slots() const noexcept {
    return slot_domain.size();
  }

  /// \brief True when slot j runs on core j of domain 0 for every j — what
  ///        every policy yields on a single-domain board.
  [[nodiscard]] bool identity() const noexcept {
    for (std::size_t j = 0; j < slots(); ++j) {
      if (slot_domain[j] != 0 || slot_local[j] != j) return false;
    }
    return true;
  }
};

/// \brief A deterministic placement heuristic.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  /// \brief Registered name.
  [[nodiscard]] virtual std::string name() const = 0;
  /// \brief Assign sum(domain_cores) slots across the domains.
  ///        \p weights optionally estimates per-slot load (empty = uniform);
  ///        load-aware policies (rect) use it, oblivious ones ignore it.
  [[nodiscard]] virtual Placement place(
      const std::vector<std::size_t>& domain_cores,
      const std::vector<double>& weights) const = 0;
};

/// \brief The process-wide placement-policy registry ("packed", "spread",
///        "rect"; policies self-register in placement.cpp).
[[nodiscard]] common::Registry<PlacementPolicy>& placement_registry();

/// \brief All registered placement-policy names, sorted.
[[nodiscard]] std::vector<std::string> placement_names();

/// \brief Build and validate the placement \p spec for a topology given as
///        per-domain core counts. Throws common::UnknownNameError for unknown
///        policies and std::logic_error if a policy ever emits an invalid
///        partition (exact cover / overlap / bounds — the validateWorkloads
///        gate every placement passes before the engine trusts it).
[[nodiscard]] Placement make_placement(const std::string& spec,
                                       const std::vector<std::size_t>& domain_cores,
                                       const std::vector<double>& weights = {});

/// \brief Convenience: placement for \p platform's topology, using \p app's
///        frame-0 work split as the load estimate when provided (what the
///        engine passes — the rect policy then tiles by actual expected
///        load). Single-domain platforms always yield the identity mapping.
[[nodiscard]] Placement make_placement(const std::string& spec,
                                       const hw::Platform& platform,
                                       const wl::Application* app = nullptr);

/// \brief Partition-validity check: every slot maps to an in-bounds
///        (domain, local) pair, no two slots share a core, and every core of
///        every domain is covered — exact cover, no overlap, bounds. Throws
///        std::logic_error naming the first violation.
void validate_placement(const Placement& placement,
                        const std::vector<std::size_t>& domain_cores);

}  // namespace prime::sim
