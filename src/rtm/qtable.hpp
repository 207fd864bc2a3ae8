/// \file qtable.hpp
/// \brief The Q-table: the RTM's learned state-action value store.
///
/// A dense |S| x |A| matrix of action values with the Bellman update of
/// eq. (3), visit counting (used to report coverage) and greedy-policy
/// extraction (used for convergence detection in Tables II/III). Every
/// tabular learner keeps its values here: the RTM one shared table, the
/// shen-rl baseline one cluster table, mcdvfs one table per core agent.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace prime::common {
class StateWriter;
class StateReader;
}  // namespace prime::common

namespace prime::rtm {

/// \brief Dense state-action value table with Q-learning update.
class QTable {
 public:
  /// \brief Construct a |states| x |actions| table whose every cell holds
  ///        \p initial (reset() restores it). Throws std::invalid_argument
  ///        when either dimension is zero.
  QTable(std::size_t states, std::size_t actions, double initial = 0.0);

  /// \brief Number of states |S|.
  [[nodiscard]] std::size_t states() const noexcept { return states_; }
  /// \brief Number of actions |A|.
  [[nodiscard]] std::size_t actions() const noexcept { return actions_; }

  /// \brief Q(s, a). Bounds-checked.
  [[nodiscard]] double q(std::size_t s, std::size_t a) const;
  /// \brief Directly set Q(s, a) (tests and persistence).
  void set_q(std::size_t s, std::size_t a, double value);
  /// \brief All values, row-major (states x actions).
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return q_;
  }
  /// \brief Replace all values, row-major. Throws std::invalid_argument
  ///        unless \p values holds states() x actions() cells.
  void set_values(std::vector<double> values);

  /// \brief Bellman update, eq. (3):
  ///        Q(s,a) <- (1-alpha) Q(s,a) + alpha (r + discount * max_a' Q(s',a')).
  ///        Also increments the (s, a) visit counter.
  void update(std::size_t s, std::size_t a, double reward, std::size_t s_next,
              double alpha, double discount);
  /// \brief update(), then best_action(s_next), from one scan of row
  ///        s_next. When s == s_next the post-update argmax is derived from
  ///        the pre-update one; the row is scanned again only when the
  ///        argmax cell fell or the new value is NaN. Results and counters
  ///        are bit-identical to the two calls.
  [[nodiscard]] std::size_t update_and_best_action(
      std::size_t s, std::size_t a, double reward, std::size_t s_next,
      double alpha, double discount);

  /// \brief Greedy action argmax_a Q(s, a) (ties break toward lower index,
  ///        i.e. the slower, lower-energy OPP).
  [[nodiscard]] std::size_t best_action(std::size_t s) const {
    if (s >= states_) throw std::out_of_range("QTable::best_action");
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
  /// \brief max_a Q(s, a).
  [[nodiscard]] double best_value(std::size_t s) const {
    if (s >= states_) throw std::out_of_range("QTable::best_value");
    double best_q = q_[s * actions_];
    for (std::size_t a = 1; a < actions_; ++a) {
      best_q = std::max(best_q, q_[s * actions_ + a]);
    }
    return best_q;
  }
  /// \brief Greedy action for every state (the exploited policy).
  [[nodiscard]] std::vector<std::size_t> greedy_policy() const;

  /// \brief Times (s, a) has been updated.
  [[nodiscard]] std::size_t visits(std::size_t s, std::size_t a) const;
  /// \brief Directly set the (s, a) visit counter (merge/persistence — a
  ///        merged table's counters are sums over its source tables).
  void set_visits(std::size_t s, std::size_t a, std::size_t count);
  /// \brief Directly set the total-update counter (merge/persistence).
  void set_total_updates(std::size_t updates) noexcept { updates_ = updates; }
  /// \brief Number of distinct states updated at least once (coverage).
  [[nodiscard]] std::size_t visited_states() const;
  /// \brief Total updates performed.
  [[nodiscard]] std::size_t total_updates() const noexcept { return updates_; }

  /// \brief Restore every value to the initial one and zero the counters.
  void reset();

  /// \brief Binary state serialisation (checkpoint/resume): dimensions,
  ///        bit-exact Q values, visit counters, total updates.
  void save_state(common::StateWriter& out) const;
  /// \brief Restore state written by save_state(), adopting its dimensions.
  void load_state(common::StateReader& in);

 private:
  std::size_t states_;
  std::size_t actions_;
  double initial_;
  std::vector<double> q_;
  std::vector<std::size_t> visits_;
  std::size_t updates_ = 0;
};

}  // namespace prime::rtm
