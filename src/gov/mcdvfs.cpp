#include "gov/mcdvfs.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/serial.hpp"
#include "gov/merge.hpp"
#include "gov/registry.hpp"

namespace prime::gov {

MulticoreDvfsGovernor::MulticoreDvfsGovernor(const McdvfsParams& params)
    : params_(params), rng_(params.seed), epsilon_(params.epsilon0) {
  common::require_exploration_rate("mcdvfs", "epsilon0", params.epsilon0);
  common::require_exploration_rate("mcdvfs", "eps-min", params.epsilon_min);
  common::require_unit_interval("mcdvfs", "alpha", params.learning_rate);
  common::require_unit_interval("mcdvfs", "discount", params.discount);
  common::require_unit_interval("mcdvfs", "decay", params.epsilon_decay);
  // state_of() indexes util_levels - 1, so an empty state space is UB.
  if (params.util_levels == 0) {
    throw std::invalid_argument("mcdvfs: levels must be >= 1");
  }
}

void MulticoreDvfsGovernor::ensure_initialised(const DecisionContext& ctx) {
  if (!agents_.empty() && actions_ == ctx.opps->size() &&
      agents_.size() == ctx.cores) {
    return;
  }
  actions_ = ctx.opps->size();
  agents_.assign(ctx.cores,
                 CoreAgent{rtm::QTable(params_.util_levels, actions_,
                                       params_.optimistic_q0)});
}

std::size_t MulticoreDvfsGovernor::state_of(double utilisation) const noexcept {
  const double u = std::clamp(utilisation, 0.0, 1.0);
  auto level = static_cast<std::size_t>(u * static_cast<double>(params_.util_levels));
  return std::min(level, params_.util_levels - 1);
}

std::size_t MulticoreDvfsGovernor::decide(
    const DecisionContext& ctx, const std::optional<EpochObservation>& last) {
  ensure_initialised(ctx);

  // Per core: learn from the completed epoch in the core's own table, then
  // choose its action (UPD epsilon-greedy); the cluster applies the max.
  const hw::Opp* ran_at = last ? &ctx.opps->at(last->opp_index) : nullptr;
  bool any_explored = false;
  std::size_t cluster_action = 0;
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    CoreAgent& agent = agents_[i];
    std::size_t s = params_.util_levels - 1;
    std::optional<std::size_t> greedy;
    if (last) {
      const common::Cycles c =
          i < last->core_cycles.size() ? last->core_cycles[i] : 0;
      const double busy = common::time_for(c, ran_at->frequency);
      const double util = last->window > 0.0 ? busy / last->window : 0.0;
      s = state_of(util);
      if (agent.has_last) {
        // Reward: a miss is heavily penalised; inside the comfortable band
        // the reward grows with utilisation (slower = better, as long as the
        // deadline holds); below the band the core is wasting energy at an
        // unnecessarily high V-F and earns nothing.
        double reward;
        if (!last->deadline_met) {
          reward = -params_.miss_penalty;
        } else if (util >= params_.target_util_lo &&
                   util <= params_.target_util_hi) {
          reward = util;
        } else {
          reward = 0.0;
        }
        greedy = agent.q.update_and_best_action(
            agent.last_state, agent.last_action, reward, s,
            params_.learning_rate, params_.discount);
      }
    }
    std::size_t action;
    if (rng_.bernoulli(epsilon_)) {
      action = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(actions_) - 1));
      any_explored = true;
    } else {
      action = greedy ? *greedy : agent.q.best_action(s);
    }
    agent.last_state = s;
    agent.last_action = action;
    agent.has_last = true;
    cluster_action = std::max(cluster_action, action);
  }
  // The A15 cores share one V-F domain, so every core experiences the
  // *applied* (max-requested) OPP; credit the update to that action, not to
  // the per-core request the hardware never executed.
  for (auto& agent : agents_) agent.last_action = cluster_action;
  if (any_explored) ++exploration_epochs_;
  ++epoch_;
  epsilon_ *= params_.epsilon_decay;
  if (epsilon_ <= params_.epsilon_min) {
    epsilon_ = params_.epsilon_min;
    if (convergence_epoch_ == 0) convergence_epoch_ = epoch_;
  }
  return cluster_action;
}

common::Seconds MulticoreDvfsGovernor::epoch_overhead() const {
  // Sensor read + one table lookup and one Bellman update *per core*.
  const double cores = static_cast<double>(std::max<std::size_t>(1, agents_.size()));
  return common::us(2.0) + common::us(12.0) * cores;
}

void MulticoreDvfsGovernor::reset() {
  agents_.clear();
  actions_ = 0;
  epsilon_ = params_.epsilon0;
  epoch_ = 0;
  convergence_epoch_ = 0;
  exploration_epochs_ = 0;
  rng_ = common::Rng(params_.seed);
}

void MulticoreDvfsGovernor::save_state(std::ostream& out) const {
  common::StateWriter w(out);
  rng_.save_state(w);
  w.size(actions_);
  w.size(agents_.size());
  for (const CoreAgent& agent : agents_) {
    w.vec_f64(agent.q.values());
    w.size(agent.last_state);
    w.size(agent.last_action);
    w.boolean(agent.has_last);
  }
  w.f64(epsilon_);
  w.size(epoch_);
  w.size(convergence_epoch_);
  w.size(exploration_epochs_);
}

void MulticoreDvfsGovernor::load_state(std::istream& in) {
  common::StateReader r(in);
  rng_.load_state(r);
  actions_ = r.size();
  const std::size_t agent_count = r.size();
  // Bound before the eager allocation: a corrupt count must fail closed like
  // every other field, not die in a multi-GB assign.
  if (agent_count > 4096) {
    throw common::SerialError("mcdvfs state: implausible agent count " +
                              std::to_string(agent_count));
  }
  const std::size_t cells =
      common::checked_cells(params_.util_levels, actions_, "mcdvfs state");
  if (agent_count != 0 && cells == 0) {
    throw common::SerialError("mcdvfs state: core agents with an empty "
                              "action space");
  }
  agents_.clear();
  agents_.reserve(agent_count);
  for (std::size_t i = 0; i < agent_count; ++i) {
    std::vector<double> q = r.vec_f64();
    if (q.size() != cells) {
      throw common::SerialError(
          "mcdvfs state: per-core Q-table size " + std::to_string(q.size()) +
          " does not match dimensions " +
          std::to_string(params_.util_levels) + "x" +
          std::to_string(actions_));
    }
    CoreAgent& agent = agents_.emplace_back(
        CoreAgent{rtm::QTable(params_.util_levels, actions_,
                              params_.optimistic_q0)});
    agent.q.set_values(std::move(q));
    agent.last_state = r.size();
    agent.last_action = r.size();
    agent.has_last = r.boolean();
    if (agent.has_last && (agent.last_state >= params_.util_levels ||
                           agent.last_action >= actions_)) {
      throw common::SerialError(
          "mcdvfs state: pending state/action " +
          std::to_string(agent.last_state) + "/" +
          std::to_string(agent.last_action) + " outside the Q-table");
    }
  }
  epsilon_ = r.f64();
  epoch_ = r.size();
  convergence_epoch_ = r.size();
  exploration_epochs_ = r.size();
}

std::unique_ptr<StateMerger> MulticoreDvfsGovernor::make_state_merger() const {
  return make_weighted_merger(
      "mcdvfs-q", std::make_unique<MulticoreDvfsGovernor>(params_));
}

// No per-cell counters: every core agent's cells merge at the epoch count.
MergeView MulticoreDvfsGovernor::merge_view() const {
  MergeView view;
  if (agents_.empty()) return view;  // untrained: champion only
  const std::size_t cells = params_.util_levels * actions_;
  view.has_data = true;
  view.dims = {agents_.size(), cells, actions_};
  view.values.reserve(agents_.size() * cells);
  for (const CoreAgent& agent : agents_) {
    view.values.insert(view.values.end(), agent.q.values().begin(),
                       agent.q.values().end());
  }
  view.cell_weights.assign(view.values.size(), epoch_);
  view.weight = epoch_;
  return view;
}

void MulticoreDvfsGovernor::set_merged(const MergeView& merged) {
  auto cell = merged.values.begin();
  for (CoreAgent& agent : agents_) {
    const auto end =
        cell + static_cast<std::ptrdiff_t>(agent.q.values().size());
    agent.q.set_values(std::vector<double>(cell, end));
    cell = end;
  }
}

std::vector<std::size_t> MulticoreDvfsGovernor::greedy_policy() const {
  std::vector<std::size_t> policy;
  policy.reserve(agents_.size() * params_.util_levels);
  for (const auto& agent : agents_) {
    const std::vector<std::size_t> greedy = agent.q.greedy_policy();
    policy.insert(policy.end(), greedy.begin(), greedy.end());
  }
  return policy;
}

namespace {

const GovernorRegistrar kRegisterMcdvfs{
    governor_registry(), "mcdvfs",
    "multi-core DVFS control baseline [20]: per-core Q-learning, UPD; "
    "keys: levels, alpha, discount, epsilon0, decay, eps-min, seed",
    [](const common::Spec& spec, std::uint64_t seed) {
      McdvfsParams p;
      p.util_levels = spec.get_count("levels", p.util_levels);
      p.learning_rate = spec.get_double("alpha", p.learning_rate);
      p.discount = spec.get_double("discount", p.discount);
      p.epsilon0 = spec.get_double("epsilon0", p.epsilon0);
      p.epsilon_decay = spec.get_double("decay", p.epsilon_decay);
      p.epsilon_min = spec.get_double("eps-min", p.epsilon_min);
      p.seed = effective_seed(spec, seed);
      return std::make_unique<MulticoreDvfsGovernor>(p);
    }};

}  // namespace

}  // namespace prime::gov
