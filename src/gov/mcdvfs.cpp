#include "gov/mcdvfs.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/serial.hpp"
#include "gov/merge.hpp"
#include "gov/registry.hpp"

namespace prime::gov {

MulticoreDvfsGovernor::MulticoreDvfsGovernor(const McdvfsParams& params)
    : params_(params), rng_(params.seed), epsilon_(params.epsilon0) {
  common::require_exploration_rate("mcdvfs", "epsilon0", params.epsilon0);
  common::require_exploration_rate("mcdvfs", "eps-min", params.epsilon_min);
}

void MulticoreDvfsGovernor::ensure_initialised(const DecisionContext& ctx) {
  if (!agents_.empty() && actions_ == ctx.opps->size() &&
      agents_.size() == ctx.cores) {
    return;
  }
  actions_ = ctx.opps->size();
  agents_.assign(ctx.cores, CoreAgent{});
  for (auto& a : agents_) {
    a.q.assign(params_.util_levels * actions_, params_.optimistic_q0);
  }
}

std::size_t MulticoreDvfsGovernor::state_of(double utilisation) const noexcept {
  const double u = std::clamp(utilisation, 0.0, 1.0);
  auto level = static_cast<std::size_t>(u * static_cast<double>(params_.util_levels));
  return std::min(level, params_.util_levels - 1);
}

double& MulticoreDvfsGovernor::q_at(CoreAgent& a, std::size_t s,
                                    std::size_t act) {
  return a.q[s * actions_ + act];
}

std::size_t MulticoreDvfsGovernor::argmax_action(const CoreAgent& a,
                                                 std::size_t s) const {
  std::size_t best = 0;
  double best_q = a.q[s * actions_];
  for (std::size_t act = 1; act < actions_; ++act) {
    const double q = a.q[s * actions_ + act];
    if (q > best_q) {
      best_q = q;
      best = act;
    }
  }
  return best;
}

std::size_t MulticoreDvfsGovernor::decide(
    const DecisionContext& ctx, const std::optional<EpochObservation>& last) {
  ensure_initialised(ctx);

  // --- Learn from the completed epoch (one update per core, per-core table).
  std::vector<std::size_t> next_states(agents_.size(), 0);
  if (last) {
    const hw::Opp& ran_at = ctx.opps->at(last->opp_index);
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      const common::Cycles c =
          i < last->core_cycles.size() ? last->core_cycles[i] : 0;
      const double busy = common::time_for(c, ran_at.frequency);
      const double util = last->window > 0.0 ? busy / last->window : 0.0;
      next_states[i] = state_of(util);

      CoreAgent& agent = agents_[i];
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
        double best_next = agent.q[next_states[i] * actions_];
        for (std::size_t act = 1; act < actions_; ++act) {
          best_next = std::max(best_next, agent.q[next_states[i] * actions_ + act]);
        }
        double& q = q_at(agent, agent.last_state, agent.last_action);
        q = (1.0 - params_.learning_rate) * q +
            params_.learning_rate * (reward + params_.discount * best_next);
      }
    }
  }

  // --- Choose per-core actions (UPD epsilon-greedy) and take the max.
  bool any_explored = false;
  std::size_t cluster_action = 0;
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    CoreAgent& agent = agents_[i];
    const std::size_t s = last ? next_states[i] : params_.util_levels - 1;
    std::size_t action;
    if (rng_.bernoulli(epsilon_)) {
      action = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(actions_) - 1));
      any_explored = true;
    } else {
      action = argmax_action(agent, s);
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
    w.vec_f64(agent.q);
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
  agents_.assign(agent_count, CoreAgent{});
  for (CoreAgent& agent : agents_) {
    agent.q = r.vec_f64();
    if (agent.q.size() != cells) {
      throw common::SerialError(
          "mcdvfs state: per-core Q-table size " +
          std::to_string(agent.q.size()) + " does not match dimensions " +
          std::to_string(params_.util_levels) + "x" +
          std::to_string(actions_));
    }
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

namespace {

/// Merge layout of mcdvfs: every core agent's Q vector is mergeable,
/// weighted by the governor's total epoch count (no per-cell counters). The
/// per-agent bookkeeping between the vectors, the RNG and the epsilon
/// schedule ride along verbatim from the champion, so the replacement spans
/// are one per agent.
class McdvfsMergeTraits final : public MergeTraits {
 public:
  explicit McdvfsMergeTraits(std::size_t util_levels)
      : util_levels_(util_levels) {}

  [[nodiscard]] std::string name() const override { return "mcdvfs-q"; }

  [[nodiscard]] ParsedState parse(const std::string& payload) const override {
    std::istringstream in(payload, std::ios::binary);
    common::StateReader r(in);
    ParsedState p;
    try {
      common::Rng rng;
      rng.load_state(r);
      const std::size_t actions = r.size();
      const std::size_t agent_count = r.size();
      if (agent_count > 4096) {
        throw StateMergeError("mcdvfs state parse: implausible agent count " +
                              std::to_string(agent_count));
      }
      const std::size_t q_size =
          common::checked_cells(util_levels_, actions, "Q table");
      for (std::size_t i = 0; i < agent_count; ++i) {
        const auto begin = static_cast<std::size_t>(in.tellg());
        const std::vector<double> q = r.vec_f64();
        const auto end = static_cast<std::size_t>(in.tellg());
        if (q.size() != q_size) {
          throw StateMergeError("mcdvfs state parse: per-core Q size " +
                                std::to_string(q.size()) +
                                " does not match dimensions " +
                                std::to_string(util_levels_) + "x" +
                                std::to_string(actions));
        }
        p.values.insert(p.values.end(), q.begin(), q.end());
        p.spans.emplace_back(begin, end);
        (void)r.size();     // last_state
        (void)r.size();     // last_action
        (void)r.boolean();  // has_last
      }
      (void)r.f64();  // epsilon_
      const std::size_t epoch = r.size();
      if (agent_count == 0 || q_size == 0) {
        p = ParsedState{};  // untrained: champion only
        return p;
      }
      p.has_data = true;
      p.dims = {agent_count, q_size, actions};
      p.cell_weights.assign(p.values.size(), epoch);
      p.weight = epoch;
    } catch (const common::SerialError& e) {
      throw StateMergeError(std::string("mcdvfs state parse: ") + e.what());
    }
    return p;
  }

  [[nodiscard]] std::vector<std::string> replacements(
      const ParsedState& champion, const std::vector<double>& merged_values,
      const std::vector<std::uint64_t>& /*merged_cell_weights*/,
      const std::vector<std::uint64_t>& /*merged_counters*/) const override {
    std::vector<std::string> out;
    if (champion.spans.empty()) return out;
    const auto q_size = static_cast<std::size_t>(champion.dims.at(1));
    out.reserve(champion.spans.size());
    for (std::size_t i = 0; i < champion.spans.size(); ++i) {
      const std::vector<double> q(
          merged_values.begin() + static_cast<std::ptrdiff_t>(i * q_size),
          merged_values.begin() +
              static_cast<std::ptrdiff_t>((i + 1) * q_size));
      std::ostringstream bytes(std::ios::binary);
      common::StateWriter w(bytes);
      w.vec_f64(q);
      out.push_back(bytes.str());
    }
    return out;
  }

 private:
  std::size_t util_levels_;
};

}  // namespace

std::unique_ptr<StateMerger> MulticoreDvfsGovernor::make_state_merger() const {
  return make_weighted_merger(
      std::make_unique<McdvfsMergeTraits>(params_.util_levels));
}

std::vector<std::size_t> MulticoreDvfsGovernor::greedy_policy() const {
  std::vector<std::size_t> policy;
  policy.reserve(agents_.size() * params_.util_levels);
  for (const auto& agent : agents_) {
    for (std::size_t s = 0; s < params_.util_levels; ++s) {
      policy.push_back(argmax_action(agent, s));
    }
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
      p.util_levels = static_cast<std::size_t>(
          spec.get_int("levels", static_cast<long long>(p.util_levels)));
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
