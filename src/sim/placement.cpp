#include "sim/placement.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace prime::sim {
namespace {

using PlacementRegistry = common::Registry<PlacementPolicy>;
using PlacementRegistrar = common::Registrar<PlacementRegistry>;

std::size_t total_of(const std::vector<std::size_t>& domain_cores) {
  return std::accumulate(domain_cores.begin(), domain_cores.end(),
                         std::size_t{0});
}

Placement empty_placement(const std::vector<std::size_t>& domain_cores) {
  Placement p;
  const std::size_t slots = total_of(domain_cores);
  p.slot_domain.resize(slots);
  p.slot_local.resize(slots);
  return p;
}

/// Fill domains in order: slots 0..c0-1 on domain 0, the next c1 on domain 1,
/// and so on. Active work (the application's loaded slot prefix) concentrates
/// on the fewest domains; the rest stay idle and can clock down.
class PackedPolicy : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "packed"; }

  [[nodiscard]] Placement place(
      const std::vector<std::size_t>& domain_cores,
      const std::vector<double>& /*weights*/) const override {
    Placement p = empty_placement(domain_cores);
    std::size_t slot = 0;
    for (std::size_t d = 0; d < domain_cores.size(); ++d) {
      for (std::size_t l = 0; l < domain_cores[d]; ++l, ++slot) {
        p.slot_domain[slot] = d;
        p.slot_local[slot] = l;
      }
    }
    return p;
  }
};

/// Deal slots round-robin across domains (skipping domains already at
/// capacity): consecutive slots — which carry the application's consecutive
/// worker shares — land on different domains, spreading load evenly.
class SpreadPolicy : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "spread"; }

  [[nodiscard]] Placement place(
      const std::vector<std::size_t>& domain_cores,
      const std::vector<double>& /*weights*/) const override {
    Placement p = empty_placement(domain_cores);
    std::size_t slot = 0;
    const std::size_t rounds =
        domain_cores.empty()
            ? 0
            : *std::max_element(domain_cores.begin(), domain_cores.end());
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t d = 0; d < domain_cores.size(); ++d) {
        if (r >= domain_cores[d]) continue;
        p.slot_domain[slot] = d;
        p.slot_local[slot] = r;
        ++slot;
      }
    }
    return p;
  }
};

/// Rectangle heuristic: tile the *loaded* slot prefix (slots with nonzero
/// estimated weight) into contiguous runs — "rectangles" of the 1-D slot
/// strip — one per domain in order, sized by dynamic programming to minimise
/// the maximum per-domain load under each domain's capacity. Idle slots then
/// fill the remaining capacity in domain order. With no weight estimate the
/// tiling is uniform and degenerates to packed.
class RectPolicy : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "rect"; }

  [[nodiscard]] Placement place(
      const std::vector<std::size_t>& domain_cores,
      const std::vector<double>& weights) const override {
    Placement p = empty_placement(domain_cores);
    const std::size_t slots = p.slots();
    const std::size_t domains = domain_cores.size();

    // Loaded prefix: everything up to the last slot with positive weight.
    // No estimate (or all-zero) means every slot is presumed loaded.
    std::size_t loaded = slots;
    if (weights.size() == slots) {
      loaded = 0;
      for (std::size_t j = 0; j < slots; ++j) {
        if (weights[j] > 0.0) loaded = j + 1;
      }
      if (loaded == 0) loaded = slots;
    }

    // Prefix sums of the load estimate over the loaded prefix.
    std::vector<double> prefix(loaded + 1, 0.0);
    for (std::size_t j = 0; j < loaded; ++j) {
      const double w = weights.size() == slots ? weights[j] : 1.0;
      prefix[j + 1] = prefix[j] + w;
    }

    // best[i][d]: minimal achievable max-domain-load placing the first i
    // loaded slots on the first d domains, chunk d-1 holding at most
    // domain_cores[d-1] slots. cut[i][d] reconstructs the chunk boundary.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<double>> best(
        loaded + 1, std::vector<double>(domains + 1, kInf));
    std::vector<std::vector<std::size_t>> cut(
        loaded + 1, std::vector<std::size_t>(domains + 1, 0));
    best[0][0] = 0.0;
    for (std::size_t d = 1; d <= domains; ++d) {
      const std::size_t cap = domain_cores[d - 1];
      for (std::size_t i = 0; i <= loaded; ++i) {
        const std::size_t lo = i > cap ? i - cap : 0;
        for (std::size_t k = lo; k <= i; ++k) {
          if (best[k][d - 1] == kInf) continue;
          const double load = std::max(best[k][d - 1], prefix[i] - prefix[k]);
          if (load < best[i][d]) {
            best[i][d] = load;
            cut[i][d] = k;
          }
        }
      }
    }

    // Walk the cuts back into per-domain chunk lengths, then lay the chunks
    // out in slot order and backfill idle slots into the remaining capacity.
    std::vector<std::size_t> chunk(domains, 0);
    for (std::size_t i = loaded, d = domains; d > 0; --d) {
      const std::size_t k = cut[i][d];
      chunk[d - 1] = i - k;
      i = k;
    }
    std::size_t slot = 0;
    std::vector<std::size_t> used(domains, 0);
    for (std::size_t d = 0; d < domains; ++d) {
      for (std::size_t l = 0; l < chunk[d]; ++l, ++slot) {
        p.slot_domain[slot] = d;
        p.slot_local[slot] = l;
      }
      used[d] = chunk[d];
    }
    for (std::size_t d = 0; slot < slots; ++slot) {
      while (used[d] >= domain_cores[d]) ++d;
      p.slot_domain[slot] = d;
      p.slot_local[slot] = used[d]++;
    }
    return p;
  }
};

const PlacementRegistrar kRegisterPacked{
    placement_registry(), "packed",
    "fill domains in order; active work concentrates, the rest idle",
    [](const common::Spec&) { return std::make_unique<PackedPolicy>(); }};

const PlacementRegistrar kRegisterSpread{
    placement_registry(), "spread",
    "deal slots round-robin across domains; load spreads evenly",
    [](const common::Spec&) { return std::make_unique<SpreadPolicy>(); }};

const PlacementRegistrar kRegisterRect{
    placement_registry(), "rect",
    "contiguous load-balanced tiles via DP over the estimated split",
    [](const common::Spec&) { return std::make_unique<RectPolicy>(); }};

}  // namespace

PlacementRegistry& placement_registry() {
  // Meyers singleton: safe against static-initialisation order, since the
  // registrars above call this during their own construction.
  static PlacementRegistry registry("placement");
  return registry;
}

std::vector<std::string> placement_names() {
  return placement_registry().names();
}

void validate_placement(const Placement& placement,
                        const std::vector<std::size_t>& domain_cores) {
  const std::size_t slots = total_of(domain_cores);
  if (placement.slot_domain.size() != slots ||
      placement.slot_local.size() != slots) {
    throw std::logic_error(
        "placement '" + placement.policy + "': " +
        std::to_string(placement.slot_domain.size()) + "/" +
        std::to_string(placement.slot_local.size()) + " slot entries for a " +
        std::to_string(slots) + "-core topology");
  }
  // Exact cover over the (domain, local) core set: every slot in bounds,
  // no core claimed twice, no core left uncovered — the validateWorkloads
  // contract.
  std::vector<std::vector<std::size_t>> owner(
      domain_cores.size(), std::vector<std::size_t>());
  for (std::size_t d = 0; d < domain_cores.size(); ++d) {
    owner[d].assign(domain_cores[d], slots);  // `slots` = unclaimed sentinel
  }
  for (std::size_t j = 0; j < slots; ++j) {
    const std::size_t d = placement.slot_domain[j];
    if (d >= domain_cores.size()) {
      throw std::logic_error("placement '" + placement.policy + "': slot " +
                             std::to_string(j) + " maps to domain " +
                             std::to_string(d) + " of " +
                             std::to_string(domain_cores.size()));
    }
    const std::size_t l = placement.slot_local[j];
    if (l >= domain_cores[d]) {
      throw std::logic_error("placement '" + placement.policy + "': slot " +
                             std::to_string(j) + " maps to core " +
                             std::to_string(l) + " of the " +
                             std::to_string(domain_cores[d]) + "-core domain " +
                             std::to_string(d));
    }
    if (owner[d][l] != slots) {
      throw std::logic_error("placement '" + placement.policy + "': slots " +
                             std::to_string(owner[d][l]) + " and " +
                             std::to_string(j) + " overlap on domain " +
                             std::to_string(d) + " core " + std::to_string(l));
    }
    owner[d][l] = j;
  }
  // slots assignments over exactly `slots` cores with no overlap is already
  // an exact cover, but state the third leg explicitly so a future policy
  // emitting short vectors with duplicate checks removed still fails here.
  for (std::size_t d = 0; d < domain_cores.size(); ++d) {
    for (std::size_t l = 0; l < domain_cores[d]; ++l) {
      if (owner[d][l] == slots) {
        throw std::logic_error("placement '" + placement.policy +
                               "': domain " + std::to_string(d) + " core " +
                               std::to_string(l) + " received no slot");
      }
    }
  }
}

Placement make_placement(const std::string& spec,
                         const std::vector<std::size_t>& domain_cores,
                         const std::vector<double>& weights) {
  const auto policy = placement_registry().create(spec);
  Placement placement = policy->place(domain_cores, weights);
  placement.policy = policy->name();
  validate_placement(placement, domain_cores);
  return placement;
}

Placement make_placement(const std::string& spec, const hw::Platform& platform,
                         const wl::Application* app) {
  std::vector<std::size_t> domain_cores;
  domain_cores.reserve(platform.domain_count());
  for (std::size_t d = 0; d < platform.domain_count(); ++d) {
    domain_cores.push_back(platform.domain(d).core_count());
  }
  std::vector<double> weights;
  if (app != nullptr && platform.domain_count() > 1) {
    // Frame 0's split is the load estimate: deterministic, and exactly the
    // shape every subsequent frame follows (workers occupy the same slots).
    std::vector<common::Cycles> split(platform.total_cores());
    app->core_work_into(0, split.size(), split.data());
    weights.reserve(split.size());
    for (const common::Cycles c : split) {
      weights.push_back(static_cast<double>(c));
    }
  }
  return make_placement(spec, domain_cores, weights);
}

}  // namespace prime::sim
