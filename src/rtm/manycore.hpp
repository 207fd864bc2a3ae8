/// \file manycore.hpp
/// \brief Many-core formulation of the RTM (Section II-D).
///
/// Extends the single-cluster RTM with the paper's many-core adaptations:
///   * each core gets its own EWMA predictor; the predicted per-core workload
///     is normalised against the total predicted workload (eq. 7),
///   * one *shared* Q-table serves all cores, with one core's state driving
///     the action and the Bellman update each decision epoch, selected in
///     round-robin order ("one core action update per decision epoch"),
///   * the cluster-wide V-F action avoids the combinatorial per-core action
///     space that per-core-table schemes (mcdvfs) suffer from — the source of
///     the Table III convergence advantage.
#pragma once

#include <vector>

#include "rtm/rtm_governor.hpp"

namespace prime::rtm {

/// \brief Additional tunables of the many-core RTM.
struct ManycoreRtmParams {
  RtmParams base{};  ///< The shared RTM tunables.
  /// Workload coordinate mode: kNormalized applies eq. (7) literally
  /// (per-core share of total); kAbsolute uses the round-robin core's
  /// predicted load against the running maximum, which keeps the workload
  /// magnitude visible to the state (better control, same table size).
  WorkloadStateMode mode = WorkloadStateMode::kAbsolute;
};

/// \brief The proposed many-core shared-Q-table governor.
class ManycoreRtmGovernor final : public RtmGovernor {
 public:
  /// \brief Construct with the given tunables.
  explicit ManycoreRtmGovernor(const ManycoreRtmParams& params = {});

  [[nodiscard]] std::string name() const override { return "rtm-manycore"; }
  void reset() override;
  // Base RTM payload followed by the per-core predictors and the round-robin
  // learner cursor.
  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;
  /// \brief The RTM merger over a many-core scratch governor, which reads
  ///        the appended state and carries it with the champion.
  [[nodiscard]] std::unique_ptr<gov::StateMerger> make_state_merger()
      const override;

  /// \brief The per-core predictors (Fig. 3-style analysis per core).
  [[nodiscard]] const std::vector<EwmaPredictor>& core_predictors() const noexcept {
    return predictors_;
  }
  /// \brief Core whose state drove the most recent decision.
  [[nodiscard]] std::size_t learner_core() const noexcept { return learner_; }

 protected:
  [[nodiscard]] double workload_coordinate(
      const gov::DecisionContext& ctx,
      const gov::EpochObservation& last) override;

 private:
  ManycoreRtmParams mc_params_;
  std::vector<EwmaPredictor> predictors_;
  std::size_t learner_ = 0;
};

}  // namespace prime::rtm
