#include "gov/thermal_cap.hpp"

#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/serial.hpp"
#include "gov/merge.hpp"
#include "gov/registry.hpp"

namespace prime::gov {

ThermalCapGovernor::ThermalCapGovernor(std::unique_ptr<Governor> inner,
                                       const ThermalCapParams& params)
    : inner_(std::move(inner)), params_(params),
      cap_(std::numeric_limits<std::size_t>::max()) {
  if (!inner_) {
    throw std::invalid_argument("ThermalCapGovernor: inner governor required");
  }
  if (params_.release > params_.trip) {
    throw std::invalid_argument("ThermalCapGovernor: release must be <= trip");
  }
}

std::string ThermalCapGovernor::name() const {
  return inner_->name() + "+thermal-cap";
}

std::size_t ThermalCapGovernor::decide(
    const DecisionContext& ctx, const std::optional<EpochObservation>& last) {
  const std::size_t choice = inner_->decide(ctx, last);
  const std::size_t top = ctx.opps->size() - 1;

  if (last) {
    if (last->temperature > params_.trip) {
      // Tighten: start from the current effective ceiling and step down.
      const std::size_t ceiling = std::min(cap_, top);
      cap_ = ceiling > params_.cap_step ? ceiling - params_.cap_step : 0;
    } else if (last->temperature < params_.release &&
               cap_ != std::numeric_limits<std::size_t>::max()) {
      // Relax one step at a time until fully released.
      cap_ = cap_ + 1 >= top ? std::numeric_limits<std::size_t>::max()
                             : cap_ + 1;
    }
  }

  if (choice > cap_) {
    ++capped_;
    return cap_;
  }
  return choice;
}

void ThermalCapGovernor::reset() {
  inner_->reset();
  cap_ = std::numeric_limits<std::size_t>::max();
  capped_ = 0;
}

void ThermalCapGovernor::save_state(std::ostream& out) const {
  {
    common::StateWriter w(out);
    w.size(cap_);
    w.size(capped_);
  }
  inner_->save_state(out);
}

void ThermalCapGovernor::load_state(std::istream& in) {
  {
    common::StateReader r(in);
    cap_ = r.size();
    capped_ = r.size();
  }
  inner_->load_state(in);
}

namespace {

/// Decorator merger: strips the two-word cap header off each payload and
/// folds the rest into the inner governor's merger, so accumulators are
/// interchangeable with the bare inner governor's. extract_state() prepends
/// a fresh (uncapped, zero-count) cap header — thermal pressure is device
/// state, not transferable knowledge.
class ThermalCapMerger final : public StateMerger {
 public:
  explicit ThermalCapMerger(std::unique_ptr<StateMerger> inner)
      : inner_(std::move(inner)) {}

  void add_state(const std::string& payload) override {
    std::istringstream in(payload, std::ios::binary);
    std::size_t header_end = 0;
    try {
      common::StateReader r(in);
      (void)r.size();  // cap_
      (void)r.size();  // capped_
      header_end = static_cast<std::size_t>(in.tellg());
    } catch (const common::SerialError& e) {
      throw StateMergeError(std::string("thermal-cap state parse: ") +
                            e.what());
    }
    inner_->add_state(payload.substr(header_end));
  }

  void add_accumulator(const std::string& bytes) override {
    inner_->add_accumulator(bytes);
  }

  [[nodiscard]] std::string accumulator() const override {
    return inner_->accumulator();
  }

  [[nodiscard]] std::string extract_state() const override {
    std::ostringstream out(std::ios::binary);
    common::StateWriter w(out);
    w.size(std::numeric_limits<std::size_t>::max());  // uncapped
    w.size(0);                                        // no capped epochs
    return out.str() + inner_->extract_state();
  }

  [[nodiscard]] std::uint64_t weight() const noexcept override {
    return inner_->weight();
  }
  [[nodiscard]] std::uint64_t sources() const noexcept override {
    return inner_->sources();
  }

 private:
  std::unique_ptr<StateMerger> inner_;
};

}  // namespace

std::unique_ptr<StateMerger> ThermalCapGovernor::make_state_merger() const {
  auto inner = inner_->make_state_merger();
  if (!inner) return nullptr;
  return std::make_unique<ThermalCapMerger>(std::move(inner));
}

namespace {

/// Composition through the registry: the inner governor is itself a spec
/// (default rtm-manycore), so "thermal-cap(inner=rtm(policy=upd))" nests.
std::unique_ptr<Governor> make_thermal_cap(const common::Spec& spec,
                                           std::uint64_t seed) {
  ThermalCapParams p;
  p.trip = spec.get_double("trip", p.trip);
  p.release = spec.get_double("release", p.release);
  p.cap_step = spec.get_count("step", p.cap_step, 0);
  auto inner = governor_registry().create(
      spec.get_string("inner", "rtm-manycore"), effective_seed(spec, seed));
  return std::make_unique<ThermalCapGovernor>(std::move(inner), p);
}

const GovernorRegistrar kRegisterThermalCap{
    governor_registry(), "thermal-cap",
    "thermal-capping decorator around any governor; "
    "keys: inner (a governor spec), trip, release, step",
    make_thermal_cap};

const GovernorRegistrar kRegisterRtmThermal{
    governor_registry(), "rtm-thermal",
    "the proposed many-core RTM wrapped in the thermal cap (alias of "
    "thermal-cap with inner=rtm-manycore)",
    make_thermal_cap};

}  // namespace

}  // namespace prime::gov
