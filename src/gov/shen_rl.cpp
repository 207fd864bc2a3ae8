#include "gov/shen_rl.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/serial.hpp"
#include "gov/merge.hpp"
#include "gov/registry.hpp"

namespace prime::gov {

ShenRlGovernor::ShenRlGovernor(const ShenRlParams& params)
    : params_(params), rng_(params.seed), epsilon_(params.epsilon0) {
  common::require_exploration_rate("shen-rl", "epsilon0", params.epsilon0);
  common::require_exploration_rate("shen-rl", "eps-min", params.epsilon_min);
}

void ShenRlGovernor::ensure_initialised(const DecisionContext& ctx) {
  const std::size_t wanted_states =
      params_.workload_levels * params_.slack_levels;
  if (actions_ == ctx.opps->size() && states_ == wanted_states) return;
  actions_ = ctx.opps->size();
  states_ = wanted_states;
  q_.assign(states_ * actions_, 0.0);
  // The pending (state, action) indexed the table just replaced.
  has_last_ = false;
}

std::size_t ShenRlGovernor::state_of(common::Cycles cycles,
                                     double slack) const noexcept {
  const double frac =
      std::clamp(static_cast<double>(cycles) / max_cycles_seen_, 0.0, 1.0);
  auto w = static_cast<std::size_t>(frac * static_cast<double>(params_.workload_levels));
  w = std::min(w, params_.workload_levels - 1);

  const double s01 =
      std::clamp((slack + params_.slack_clip) / (2.0 * params_.slack_clip), 0.0, 1.0);
  auto l = static_cast<std::size_t>(s01 * static_cast<double>(params_.slack_levels));
  l = std::min(l, params_.slack_levels - 1);
  return w * params_.slack_levels + l;
}

std::size_t ShenRlGovernor::argmax_action(std::size_t s) const {
  std::size_t best = 0;
  double best_q = q_[s * actions_];
  for (std::size_t a = 1; a < actions_; ++a) {
    if (q_[s * actions_ + a] > best_q) {
      best_q = q_[s * actions_ + a];
      best = a;
    }
  }
  return best;
}

std::size_t ShenRlGovernor::decide(const DecisionContext& ctx,
                                   const std::optional<EpochObservation>& last) {
  ensure_initialised(ctx);

  std::size_t state = states_ - 1;  // pessimistic start: heavy workload
  if (last) {
    max_cycles_seen_ =
        std::max(max_cycles_seen_, static_cast<double>(last->total_cycles));
    state = state_of(last->total_cycles, last->slack_ratio());

    if (has_last_) {
      // Reward: -(normalised power) - violation penalty, per the original.
      const hw::Opp& fastest = ctx.opps->at(ctx.opps->size() - 1);
      const hw::Opp& ran_at = ctx.opps->at(last->opp_index);
      const double pnorm =
          (ran_at.voltage * ran_at.voltage * ran_at.frequency) /
          (fastest.voltage * fastest.voltage * fastest.frequency);
      const double violation =
          last->deadline_met ? 0.0 : -last->slack_ratio();  // positive amount
      const double reward = -params_.power_weight * pnorm -
                            params_.violation_weight * violation;
      double best_next = q_[state * actions_];
      for (std::size_t a = 1; a < actions_; ++a) {
        best_next = std::max(best_next, q_[state * actions_ + a]);
      }
      double& q = q_[last_state_ * actions_ + last_action_];
      q = (1.0 - params_.learning_rate) * q +
          params_.learning_rate * (reward + params_.discount * best_next);
    }
  }

  std::size_t action;
  if (rng_.bernoulli(epsilon_)) {
    // UPD: uniform draw over the whole action space — the exploration policy
    // the paper's EPD (eq. 2) improves upon.
    action = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(actions_) - 1));
    ++explorations_;
  } else {
    action = argmax_action(state);
  }
  ++epoch_;
  epsilon_ *= params_.epsilon_decay;
  if (epsilon_ <= params_.epsilon_min) {
    epsilon_ = params_.epsilon_min;
    if (convergence_epoch_ == 0) convergence_epoch_ = epoch_;
  }

  last_state_ = state;
  last_action_ = action;
  has_last_ = true;
  return action;
}

void ShenRlGovernor::reset() {
  q_.clear();
  actions_ = 0;
  states_ = 0;
  epsilon_ = params_.epsilon0;
  epoch_ = 0;
  convergence_epoch_ = 0;
  max_cycles_seen_ = 1.0;
  has_last_ = false;
  explorations_ = 0;
  rng_ = common::Rng(params_.seed);
}

void ShenRlGovernor::save_state(std::ostream& out) const {
  common::StateWriter w(out);
  rng_.save_state(w);
  w.size(states_);
  w.size(actions_);
  w.vec_f64(q_);
  w.f64(epsilon_);
  w.size(epoch_);
  w.size(convergence_epoch_);
  w.f64(max_cycles_seen_);
  w.size(last_state_);
  w.size(last_action_);
  w.boolean(has_last_);
  w.size(explorations_);
}

void ShenRlGovernor::load_state(std::istream& in) {
  common::StateReader r(in);
  rng_.load_state(r);
  states_ = r.size();
  actions_ = r.size();
  q_ = r.vec_f64();
  if (q_.size() != common::checked_cells(states_, actions_, "shen-rl state")) {
    throw common::SerialError("shen-rl state: Q-table size " +
                              std::to_string(q_.size()) +
                              " does not match dimensions " +
                              std::to_string(states_) + "x" +
                              std::to_string(actions_));
  }
  epsilon_ = r.f64();
  epoch_ = r.size();
  convergence_epoch_ = r.size();
  max_cycles_seen_ = r.f64();
  last_state_ = r.size();
  last_action_ = r.size();
  has_last_ = r.boolean();
  explorations_ = r.size();
  // The workload normaliser starts at 1 and only grows; NaN would reach the
  // state index as a float-to-integer conversion.
  if (!(max_cycles_seen_ >= 1.0)) {
    throw common::SerialError("shen-rl state: workload normaliser " +
                              std::to_string(max_cycles_seen_) + " below 1");
  }
  if (has_last_ && (last_state_ >= states_ || last_action_ >= actions_)) {
    throw common::SerialError("shen-rl state: pending state/action " +
                              std::to_string(last_state_) + "/" +
                              std::to_string(last_action_) +
                              " outside the Q-table");
  }
}

namespace {

/// Merge layout of shen-rl: the flat Q vector is the mergeable core. The
/// governor keeps no per-cell visit counters, so every cell of a payload
/// merges at the payload's total epoch count; the epsilon schedule, RNG and
/// bookkeeping ride along verbatim from the champion.
class ShenRlMergeTraits final : public MergeTraits {
 public:
  [[nodiscard]] std::string name() const override { return "shen-rl-q"; }

  [[nodiscard]] ParsedState parse(const std::string& payload) const override {
    std::istringstream in(payload, std::ios::binary);
    common::StateReader r(in);
    ParsedState p;
    try {
      common::Rng rng;
      rng.load_state(r);
      const std::size_t states = r.size();
      const std::size_t actions = r.size();
      const auto begin = static_cast<std::size_t>(in.tellg());
      const std::vector<double> q = r.vec_f64();
      const auto end = static_cast<std::size_t>(in.tellg());
      if (q.size() != common::checked_cells(states, actions, "Q table")) {
        throw StateMergeError("shen-rl state parse: Q size " +
                              std::to_string(q.size()) +
                              " does not match dimensions " +
                              std::to_string(states) + "x" +
                              std::to_string(actions));
      }
      (void)r.f64();  // epsilon_
      const std::size_t epoch = r.size();
      if (states == 0 || actions == 0) return p;  // untrained: champion only
      p.has_data = true;
      p.dims = {states, actions};
      p.values = q;
      p.cell_weights.assign(q.size(), epoch);
      p.weight = epoch;
      p.spans = {{begin, end}};
    } catch (const common::SerialError& e) {
      throw StateMergeError(std::string("shen-rl state parse: ") + e.what());
    }
    return p;
  }

  [[nodiscard]] std::vector<std::string> replacements(
      const ParsedState& champion, const std::vector<double>& merged_values,
      const std::vector<std::uint64_t>& /*merged_cell_weights*/,
      const std::vector<std::uint64_t>& /*merged_counters*/) const override {
    if (champion.spans.empty()) return {};
    std::ostringstream out(std::ios::binary);
    common::StateWriter w(out);
    w.vec_f64(merged_values);
    return {out.str()};
  }
};

}  // namespace

std::unique_ptr<StateMerger> ShenRlGovernor::make_state_merger() const {
  return make_weighted_merger(std::make_unique<ShenRlMergeTraits>());
}

std::vector<std::size_t> ShenRlGovernor::greedy_policy() const {
  std::vector<std::size_t> policy;
  policy.reserve(states_);
  for (std::size_t s = 0; s < states_; ++s) policy.push_back(argmax_action(s));
  return policy;
}

namespace {

const GovernorRegistrar kRegisterShenRl{
    governor_registry(), "shen-rl",
    "autonomous RL baseline [21]: cluster-level Q-learning, UPD exploration; "
    "keys: alpha, discount, epsilon0, decay, eps-min, seed",
    [](const common::Spec& spec, std::uint64_t seed) {
      ShenRlParams p;
      p.learning_rate = spec.get_double("alpha", p.learning_rate);
      p.discount = spec.get_double("discount", p.discount);
      p.epsilon0 = spec.get_double("epsilon0", p.epsilon0);
      p.epsilon_decay = spec.get_double("decay", p.epsilon_decay);
      p.epsilon_min = spec.get_double("eps-min", p.epsilon_min);
      p.seed = effective_seed(spec, seed);
      return std::make_unique<ShenRlGovernor>(p);
    }};

}  // namespace

}  // namespace prime::gov
