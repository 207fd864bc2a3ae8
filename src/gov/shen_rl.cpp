#include "gov/shen_rl.hpp"

#include <algorithm>
#include <memory>

#include "common/serial.hpp"
#include "gov/merge.hpp"
#include "gov/registry.hpp"

namespace prime::gov {

ShenRlGovernor::ShenRlGovernor(const ShenRlParams& params)
    : params_(params), rng_(params.seed), epsilon_(params.epsilon0) {
  common::require_exploration_rate("shen-rl", "epsilon0", params.epsilon0);
  common::require_exploration_rate("shen-rl", "eps-min", params.epsilon_min);
  common::require_unit_interval("shen-rl", "alpha", params.learning_rate);
  common::require_unit_interval("shen-rl", "discount", params.discount);
  common::require_unit_interval("shen-rl", "decay", params.epsilon_decay);
}

void ShenRlGovernor::ensure_initialised(const DecisionContext& ctx) {
  const std::size_t states = params_.workload_levels * params_.slack_levels;
  if (q_ && q_->actions() == ctx.opps->size() && q_->states() == states) {
    return;
  }
  q_.emplace(states, ctx.opps->size());
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

std::size_t ShenRlGovernor::decide(const DecisionContext& ctx,
                                   const std::optional<EpochObservation>& last) {
  ensure_initialised(ctx);

  std::size_t state = q_->states() - 1;  // pessimistic start: heavy load
  std::optional<std::size_t> greedy;
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
      greedy = q_->update_and_best_action(last_state_, last_action_, reward,
                                          state, params_.learning_rate,
                                          params_.discount);
    }
  }

  std::size_t action;
  if (rng_.bernoulli(epsilon_)) {
    // UPD: uniform draw over the whole action space — the exploration policy
    // the paper's EPD (eq. 2) improves upon.
    action = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(q_->actions()) - 1));
    ++explorations_;
  } else {
    action = greedy ? *greedy : q_->best_action(state);
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
  q_.reset();
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
  w.size(q_ ? q_->states() : 0);
  w.size(q_ ? q_->actions() : 0);
  w.vec_f64(q_ ? q_->values() : std::vector<double>{});
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
  const std::size_t states = r.size();
  const std::size_t actions = r.size();
  std::vector<double> q = r.vec_f64();
  if (q.size() != common::checked_cells(states, actions, "shen-rl state")) {
    throw common::SerialError("shen-rl state: Q-table size " +
                              std::to_string(q.size()) +
                              " does not match dimensions " +
                              std::to_string(states) + "x" +
                              std::to_string(actions));
  }
  q_.reset();
  if (!q.empty()) {
    q_.emplace(states, actions);
    q_->set_values(std::move(q));
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
  if (has_last_ && (!q_ || last_state_ >= q_->states() ||
                    last_action_ >= q_->actions())) {
    throw common::SerialError("shen-rl state: pending state/action " +
                              std::to_string(last_state_) + "/" +
                              std::to_string(last_action_) +
                              " outside the Q-table");
  }
}

std::unique_ptr<StateMerger> ShenRlGovernor::make_state_merger() const {
  return make_weighted_merger("shen-rl-q",
                              std::make_unique<ShenRlGovernor>(params_));
}

MergeView ShenRlGovernor::merge_view() const {
  MergeView view;
  if (!q_) return view;  // untrained: champion only
  view.has_data = true;
  view.dims = {q_->states(), q_->actions()};
  view.values = q_->values();
  view.cell_weights.assign(view.values.size(), epoch_);
  view.weight = epoch_;
  return view;
}

void ShenRlGovernor::set_merged(const MergeView& merged) {
  q_->set_values(merged.values);
}

std::vector<std::size_t> ShenRlGovernor::greedy_policy() const {
  return q_ ? q_->greedy_policy() : std::vector<std::size_t>{};
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
