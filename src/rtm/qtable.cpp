#include "rtm/qtable.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/serial.hpp"

namespace prime::rtm {

QTable::QTable(std::size_t states, std::size_t actions, double initial)
    : states_(states), actions_(actions), initial_(initial),
      q_(states * actions, initial), visits_(states * actions, 0) {
  if (states == 0 || actions == 0) {
    throw std::invalid_argument("QTable: dimensions must be >= 1");
  }
}

double QTable::q(std::size_t s, std::size_t a) const {
  if (s >= states_ || a >= actions_) throw std::out_of_range("QTable::q");
  return q_[s * actions_ + a];
}

void QTable::set_q(std::size_t s, std::size_t a, double value) {
  if (s >= states_ || a >= actions_) throw std::out_of_range("QTable::set_q");
  q_[s * actions_ + a] = value;
}

void QTable::set_values(std::vector<double> values) {
  if (values.size() != q_.size()) {
    throw std::invalid_argument("QTable::set_values: " +
                                std::to_string(values.size()) +
                                " values for " + std::to_string(q_.size()) +
                                " cells");
  }
  q_ = std::move(values);
}

void QTable::update(std::size_t s, std::size_t a, double reward,
                    std::size_t s_next, double alpha, double discount) {
  if (s >= states_ || a >= actions_ || s_next >= states_) {
    throw std::out_of_range("QTable::update");
  }
  double& q = q_[s * actions_ + a];
  q = (1.0 - alpha) * q + alpha * (reward + discount * best_value(s_next));
  ++visits_[s * actions_ + a];
  ++updates_;
}

std::size_t QTable::update_and_best_action(std::size_t s, std::size_t a,
                                           double reward, std::size_t s_next,
                                           double alpha, double discount) {
  if (s >= states_ || a >= actions_ || s_next >= states_) {
    throw std::out_of_range("QTable::update_and_best_action");
  }
  // best_value() and best_action() keep the first strict maximum, so the
  // value update() reads is the cell of this row scan's argmax.
  const std::size_t best = best_action(s_next);
  const double best_q = q_[s_next * actions_ + best];
  double& q = q_[s * actions_ + a];
  q = (1.0 - alpha) * q + alpha * (reward + discount * best_q);
  ++visits_[s * actions_ + a];
  ++updates_;
  // The update rewrote a cell of row s_next only when s == s_next. Every
  // other cell kept its value, so the new argmax follows from the old one
  // unless the argmax cell fell or the new value is NaN (a NaN in cell 0
  // pins the scan to 0; anywhere else the scan skips it).
  if (s != s_next) return best;
  if (a != best) {
    if (q > best_q) return a;
    if (q == best_q) return std::min(a, best);  // first of the tied maxima
    if (!std::isnan(q)) return best;
  } else if (q >= best_q) {
    return best;
  }
  return best_action(s_next);
}

std::vector<std::size_t> QTable::greedy_policy() const {
  std::vector<std::size_t> policy(states_);
  for (std::size_t s = 0; s < states_; ++s) policy[s] = best_action(s);
  return policy;
}

std::size_t QTable::visits(std::size_t s, std::size_t a) const {
  if (s >= states_ || a >= actions_) throw std::out_of_range("QTable::visits");
  return visits_[s * actions_ + a];
}

void QTable::set_visits(std::size_t s, std::size_t a, std::size_t count) {
  if (s >= states_ || a >= actions_) {
    throw std::out_of_range("QTable::set_visits");
  }
  visits_[s * actions_ + a] = count;
}

std::size_t QTable::visited_states() const {
  std::size_t count = 0;
  for (std::size_t s = 0; s < states_; ++s) {
    for (std::size_t a = 0; a < actions_; ++a) {
      if (visits_[s * actions_ + a] > 0) {
        ++count;
        break;
      }
    }
  }
  return count;
}

void QTable::reset() {
  std::fill(q_.begin(), q_.end(), initial_);
  std::fill(visits_.begin(), visits_.end(), 0);
  updates_ = 0;
}

void QTable::save_state(common::StateWriter& out) const {
  out.size(states_);
  out.size(actions_);
  out.vec_f64(q_);
  std::vector<std::uint64_t> visits(visits_.begin(), visits_.end());
  out.vec_u64(visits);
  out.size(updates_);
}

void QTable::load_state(common::StateReader& in) {
  const std::size_t states = in.size();
  const std::size_t actions = in.size();
  if (states == 0 || actions == 0) {
    throw common::SerialError("QTable state: zero dimension");
  }
  const std::size_t cells =
      common::checked_cells(states, actions, "QTable state");
  std::vector<double> q = in.vec_f64();
  const std::vector<std::uint64_t> visits = in.vec_u64();
  if (q.size() != cells || visits.size() != cells) {
    throw common::SerialError("QTable state: value/visit vector size does "
                              "not match the stored dimensions");
  }
  states_ = states;
  actions_ = actions;
  q_ = std::move(q);
  visits_.assign(visits.begin(), visits.end());
  updates_ = in.size();
}

}  // namespace prime::rtm
