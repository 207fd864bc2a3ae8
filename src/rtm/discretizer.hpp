/// \file discretizer.hpp
/// \brief State discretisation for the Q-table (Section II-A).
///
/// The Q-table rows are states S{CC, L}: the predicted cycle count and the
/// current average slack ratio, each quantised into N levels (the paper uses
/// N = 5, chosen by design-space exploration — reproduced by the
/// `bench_paper table=qtable`). Workload can be quantised either as a
/// fraction of the largest workload seen so far (absolute mode, used by the
/// single-cluster RTM) or as the per-core share of the total predicted
/// workload per eq. (7) (normalised mode, used by the many-core RTM).
#pragma once

#include <algorithm>
#include <cstddef>

namespace prime::rtm {

/// \brief How the workload coordinate of the state is normalised.
enum class WorkloadStateMode {
  kAbsolute,    ///< predicted CC / running-max CC (single-cluster RTM).
  kNormalized,  ///< per-core predicted CC / total predicted CC, eq. (7).
};

/// \brief Parameters of the state discretisation.
struct DiscretizerParams {
  std::size_t workload_levels = 5;  ///< N for the CC coordinate.
  std::size_t slack_levels = 5;     ///< N for the L coordinate.
  double slack_clip = 0.5;          ///< |L| mapped to the edge bins.
};

/// \brief Maps (workload01, slack) pairs to Q-table row indices.
class Discretizer {
 public:
  /// \brief Construct with the given level counts. Throws
  ///        std::invalid_argument when a level count is zero.
  explicit Discretizer(const DiscretizerParams& params = {});

  /// \brief Total number of states |S| = workload_levels * slack_levels.
  [[nodiscard]] std::size_t state_count() const noexcept;

  /// \brief Quantise a workload fraction in [0, 1] to its level.
  [[nodiscard]] std::size_t workload_level(double workload01) const noexcept {
    const double w = std::clamp(workload01, 0.0, 1.0);
    const auto level =
        static_cast<std::size_t>(w * static_cast<double>(params_.workload_levels));
    return std::min(level, params_.workload_levels - 1);
  }

  /// \brief Quantise a slack ratio (clipped to +/- slack_clip) to its level.
  [[nodiscard]] std::size_t slack_level(double slack) const noexcept {
    const double s01 = std::clamp(
        (slack + params_.slack_clip) / (2.0 * params_.slack_clip), 0.0, 1.0);
    const auto level =
        static_cast<std::size_t>(s01 * static_cast<double>(params_.slack_levels));
    return std::min(level, params_.slack_levels - 1);
  }

  /// \brief Combined state index: workload_level * slack_levels + slack_level.
  [[nodiscard]] std::size_t state_of(double workload01, double slack) const noexcept {
    return workload_level(workload01) * params_.slack_levels + slack_level(slack);
  }

  /// \brief Invert a state index back to (workload_level, slack_level) for
  ///        reporting. Returned as workload-major pair packed in a struct.
  struct Levels {
    std::size_t workload = 0;
    std::size_t slack = 0;
  };
  [[nodiscard]] Levels levels_of(std::size_t state) const noexcept;

  /// \brief Access parameters.
  [[nodiscard]] const DiscretizerParams& params() const noexcept { return params_; }

 private:
  DiscretizerParams params_;
};

}  // namespace prime::rtm
