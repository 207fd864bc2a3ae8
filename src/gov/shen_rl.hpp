/// \file shen_rl.hpp
/// \brief Autonomous RL power-management baseline (Shen et al., TODAES 2013
///        style) [21].
///
/// The reference the paper compares exploration counts against (Table II).
/// Single cluster-level Q-learning agent whose state couples the *last
/// observed* workload level with the performance (slack) level — structurally
/// close to the proposed RTM — but:
///   * action selection during exploration is a Uniform Probability
///     Distribution (UPD) draw over all V-F points, with no slack-directed
///     bias (the EPD of eq. (2) is exactly what the paper adds), and
///   * the workload state is reactive (no EWMA prediction).
/// Reward trades power against a performance-violation penalty, following the
/// original's formulation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "gov/governor.hpp"
#include "gov/merge.hpp"
#include "rtm/qtable.hpp"

namespace prime::gov {

/// \brief Tunables of the UPD RL baseline.
struct ShenRlParams {
  std::size_t workload_levels = 5;  ///< Cycle-count discretisation levels.
  std::size_t slack_levels = 5;     ///< Slack discretisation levels.
  double learning_rate = 0.25;      ///< Q-update alpha.
  double discount = 0.5;            ///< Q-update gamma.
  double epsilon0 = 1.0;            ///< Initial exploration probability.
  double epsilon_decay = 0.993;     ///< Per-epoch multiplicative decay.
  double epsilon_min = 0.01;        ///< Exploration floor.
  double power_weight = 1.0;        ///< Reward weight on normalised power.
  double violation_weight = 3.0;    ///< Reward weight on deadline violation.
  double slack_clip = 0.5;          ///< Slack magnitude mapped to the edge bins.
  std::uint64_t seed = 0x5EE17;     ///< Exploration RNG seed.
};

/// \brief Cluster-level UPD epsilon-greedy Q-learning governor.
class ShenRlGovernor final : public Governor,
                             public Learner,
                             public MergeableState {
 public:
  /// \brief Construct with the given tunables.
  explicit ShenRlGovernor(const ShenRlParams& params = {});

  [[nodiscard]] std::string name() const override { return "shen-rl-upd"; }
  [[nodiscard]] std::size_t decide(
      const DecisionContext& ctx,
      const std::optional<EpochObservation>& last) override;
  /// \brief One table lookup + one Bellman update per epoch.
  [[nodiscard]] common::Seconds epoch_overhead() const override {
    return common::us(2.0) + common::us(15.0);
  }
  void reset() override;
  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;
  /// \brief Epoch-weighted Q-vector merger (warm-start policy library): no
  ///        per-cell visit counters here, so each payload's cells merge at
  ///        its total epoch count.
  [[nodiscard]] std::unique_ptr<StateMerger> make_state_merger()
      const override;
  [[nodiscard]] MergeView merge_view() const override;
  void set_merged(const MergeView& merged) override;

  /// \brief Number of epochs decided by the uniform-random (exploration) arm.
  [[nodiscard]] std::size_t exploration_count() const noexcept override {
    return explorations_;
  }
  /// \brief Current epsilon.
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }
  /// \brief Epoch at which epsilon first reached its floor; 0 until then.
  [[nodiscard]] std::size_t learning_complete_epoch() const noexcept {
    return convergence_epoch_;
  }
  /// \brief Greedy action per state (for convergence tracking).
  [[nodiscard]] std::vector<std::size_t> greedy_policy() const override;

 private:
  void ensure_initialised(const DecisionContext& ctx);
  [[nodiscard]] std::size_t state_of(common::Cycles cycles,
                                     double slack) const noexcept;

  ShenRlParams params_;
  common::Rng rng_;
  std::optional<rtm::QTable> q_;  // none until the first decide()
  double epsilon_;
  std::size_t epoch_ = 0;
  std::size_t convergence_epoch_ = 0;
  double max_cycles_seen_ = 1.0;
  std::size_t last_state_ = 0;
  std::size_t last_action_ = 0;
  bool has_last_ = false;
  std::size_t explorations_ = 0;
};

}  // namespace prime::gov
