/// \file mcdvfs.hpp
/// \brief Multi-core DVFS control baseline (Ge & Qiu, DAC 2011 style) [20].
///
/// The paper's strongest prior-work comparator: machine-learning DVFS for
/// multimedia on multi-cores. Faithful-to-the-idea reimplementation:
///   * one *independent* Q-learning agent per core (no knowledge sharing —
///     the very property the paper's shared-table design improves on),
///   * reactive state from the core's last observed utilisation (no workload
///     prediction),
///   * uniform-probability (UPD) epsilon-greedy exploration,
///   * reward that prizes meeting the deadline with a comfortable utilisation
///     margin (the thermal term of the original is neglected, exactly as the
///     paper does "for equivalence of comparison").
/// The cluster applies the fastest OPP requested by any core's agent, since
/// the A15 cores share one V-F domain.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "gov/governor.hpp"
#include "gov/merge.hpp"
#include "rtm/qtable.hpp"

namespace prime::gov {

/// \brief Tunables of the multi-core DVFS control baseline.
struct McdvfsParams {
  std::size_t util_levels = 5;      ///< Discretisation of per-core utilisation.
  double learning_rate = 0.2;       ///< Q-update alpha.
  double discount = 0.5;            ///< Q-update gamma.
  double epsilon0 = 1.0;            ///< Initial exploration probability.
  double epsilon_decay = 0.978;     ///< Per-epoch multiplicative decay.
  double epsilon_min = 0.01;        ///< Exploration floor.
  double target_util_lo = 0.70;     ///< Comfortable-utilisation band (low).
  double target_util_hi = 1.00;     ///< Comfortable-utilisation band (high).
  double miss_penalty = 2.0;        ///< Reward penalty for a deadline miss.
  /// Optimistic initial Q value. With the shared V-F domain the applied
  /// action is the max over cores, so pessimistically-initialised low actions
  /// would never be tried; optimism forces each to be visited and rejected on
  /// evidence (standard remedy for epsilon-greedy under action aggregation).
  double optimistic_q0 = 2.0;
  std::uint64_t seed = 0x6E0172;    ///< Exploration RNG seed.
};

/// \brief Per-core-table Q-learning governor.
class MulticoreDvfsGovernor final : public Governor,
                                    public Learner,
                                    public MergeableState {
 public:
  /// \brief Construct with the given tunables.
  explicit MulticoreDvfsGovernor(const McdvfsParams& params = {});

  [[nodiscard]] std::string name() const override { return "mcdvfs-gequ"; }
  [[nodiscard]] std::size_t decide(
      const DecisionContext& ctx,
      const std::optional<EpochObservation>& last) override;
  /// \brief Per-core table lookups + 4 Q updates each epoch: heavier than the
  ///        shared-table RTM (one update). Feeds the Table III comparison.
  [[nodiscard]] common::Seconds epoch_overhead() const override;
  void reset() override;
  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;
  /// \brief Epoch-weighted merger over the per-core Q tables (warm-start
  ///        policy library).
  [[nodiscard]] std::unique_ptr<StateMerger> make_state_merger()
      const override;
  [[nodiscard]] MergeView merge_view() const override;
  void set_merged(const MergeView& merged) override;

  /// \brief Learner interface: number of epochs in which at least one core
  ///        explored.
  [[nodiscard]] std::size_t exploration_count() const noexcept override {
    return exploration_epochs_;
  }
  /// \brief Current epsilon (exposed for convergence analysis).
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }
  /// \brief Epoch at which epsilon first reached its floor; 0 until then.
  [[nodiscard]] std::size_t learning_complete_epoch() const noexcept {
    return convergence_epoch_;
  }
  /// \brief Greedy OPP choice per core state for convergence tracking:
  ///        concatenated argmax table across all cores.
  [[nodiscard]] std::vector<std::size_t> greedy_policy() const override;

 private:
  struct CoreAgent {
    rtm::QTable q;                    // util_levels x actions
    std::size_t last_state = 0;
    std::size_t last_action = 0;
    bool has_last = false;
  };

  void ensure_initialised(const DecisionContext& ctx);
  [[nodiscard]] std::size_t state_of(double utilisation) const noexcept;

  McdvfsParams params_;
  common::Rng rng_;
  std::vector<CoreAgent> agents_;
  std::size_t actions_ = 0;
  double epsilon_;
  std::size_t epoch_ = 0;
  std::size_t convergence_epoch_ = 0;
  std::size_t exploration_epochs_ = 0;
};

}  // namespace prime::gov
