/// \file slack.hpp
/// \brief Average slack-ratio monitor (eq. 5).
///
/// The paper's performance signal: L_i aggregates the per-epoch slack
/// `(Tref - Ti - Tovh) / Tref` over the D epochs elapsed "since the start of
/// the application with a given Tref" — i.e. the accumulator restarts when
/// the performance requirement changes. A strictly cumulative average reacts
/// ever more slowly as D grows, so we additionally support an exponentially
/// weighted average (the default, factor 0.1) which matches the per-frame
/// slack movement visible in the paper's Fig. 3; the cumulative form remains
/// available (`SlackAveraging::kCumulative`) and is compared in the
/// `bench_paper table=policy`.
#pragma once

#include <cstddef>

#include "common/units.hpp"

namespace prime::common {
class StateWriter;
class StateReader;
}  // namespace prime::common

namespace prime::rtm {

/// \brief Averaging mode for the slack monitor.
enum class SlackAveraging {
  kCumulative,   ///< Paper-literal eq. (5): mean since requirement start.
  kExponential,  ///< EWMA of per-epoch slack (responsive; default).
};

/// \brief Tracks the average slack ratio L and its per-epoch change dL.
class SlackMonitor {
 public:
  /// \brief Construct with the chosen averaging mode. \p ewma_alpha is the
  ///        weight of the newest epoch in exponential mode.
  explicit SlackMonitor(SlackAveraging mode = SlackAveraging::kExponential,
                        double ewma_alpha = 0.1);

  /// \brief Record one completed epoch.
  /// \param t_ref Reference (deadline) time for the epoch.
  /// \param t_exec Observed frame execution time.
  /// \param t_ovh  Learning/adaptation overhead charged to the epoch.
  /// \return The updated average slack ratio L_i.
  double observe(common::Seconds t_ref, common::Seconds t_exec,
                 common::Seconds t_ovh) {
    if (t_ref <= 0.0) return average_;
    const double slack = (t_ref - t_exec - t_ovh) / t_ref;
    last_ = slack;
    const double previous = average_;
    ++epochs_;
    switch (mode_) {
      case SlackAveraging::kCumulative:
        sum_ += slack;
        average_ = sum_ / static_cast<double>(epochs_);
        break;
      case SlackAveraging::kExponential:
        average_ = epochs_ == 1
                       ? slack
                       : ewma_alpha_ * slack + (1.0 - ewma_alpha_) * average_;
        break;
    }
    delta_ = average_ - previous;
    return average_;
  }

  /// \brief Current average slack ratio L (0 before any observation).
  [[nodiscard]] double average_slack() const noexcept { return average_; }
  /// \brief Change of L in the most recent observation (the paper's dL).
  [[nodiscard]] double delta_slack() const noexcept { return delta_; }
  /// \brief Per-epoch (instantaneous) slack of the last observation.
  [[nodiscard]] double last_slack() const noexcept { return last_; }
  /// \brief Number of epochs D since the last reset/requirement change.
  [[nodiscard]] std::size_t epochs() const noexcept { return epochs_; }

  /// \brief Restart the accumulator (application start or Tref change).
  void reset() noexcept;

  /// \brief Serialise the accumulator state (mode/alpha are configuration).
  void save_state(common::StateWriter& out) const;
  /// \brief Restore state written by save_state().
  void load_state(common::StateReader& in);

 private:
  SlackAveraging mode_;
  double ewma_alpha_;
  double average_ = 0.0;
  double delta_ = 0.0;
  double last_ = 0.0;
  double sum_ = 0.0;
  std::size_t epochs_ = 0;
};

}  // namespace prime::rtm
