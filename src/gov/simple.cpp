#include "gov/simple.hpp"

#include <memory>

#include "common/serial.hpp"
#include "gov/registry.hpp"

namespace prime::gov {

std::size_t PerformanceGovernor::decide(
    const DecisionContext& ctx, const std::optional<EpochObservation>&) {
  return ctx.opps->size() - 1;
}

std::size_t PowersaveGovernor::decide(const DecisionContext&,
                                      const std::optional<EpochObservation>&) {
  return 0;
}

std::size_t UserspaceGovernor::decide(const DecisionContext& ctx,
                                      const std::optional<EpochObservation>&) {
  return ctx.opps->clamp_index(static_cast<long long>(index_));
}

void UserspaceGovernor::save_state(std::ostream& out) const {
  common::StateWriter w(out);
  w.size(index_);
}

void UserspaceGovernor::load_state(std::istream& in) {
  common::StateReader r(in);
  index_ = r.size();
}

namespace {

const GovernorRegistrar kRegisterPerformance{
    governor_registry(), "performance",
    "fastest OPP always (Linux 'performance'; upper perf / energy anchor)",
    [](const common::Spec&, std::uint64_t) {
      return std::make_unique<PerformanceGovernor>();
    }};

const GovernorRegistrar kRegisterPowersave{
    governor_registry(), "powersave",
    "slowest OPP always (Linux 'powersave'; lower bound anchor)",
    [](const common::Spec&, std::uint64_t) {
      return std::make_unique<PowersaveGovernor>();
    }};

const GovernorRegistrar kRegisterUserspace{
    governor_registry(), "userspace",
    "fixed user-chosen OPP (Linux 'userspace'); keys: opp",
    [](const common::Spec& spec, std::uint64_t) {
      return std::make_unique<UserspaceGovernor>(spec.get_count("opp", 0, 0));
    }};

}  // namespace

}  // namespace prime::gov
