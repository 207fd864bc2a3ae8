#include "rtm/policy.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/serial.hpp"

namespace prime::rtm {

namespace {

// Frequencies normalised by f_max, so beta is unitless.
void normalised_frequencies(const hw::OppTable& opps, std::vector<double>& out) {
  const double f_max = opps.max().frequency;
  out.resize(opps.size());
  for (std::size_t a = 0; a < out.size(); ++a) {
    out[a] = opps.at(a).frequency / f_max;
  }
}

}  // namespace

void EpdPolicy::fill_probabilities(const std::vector<double>& f_norm,
                                   double slack, std::vector<double>& p) const {
  // p(a) = lambda * exp(-beta * Fnorm(a) * L), normalised. lambda (the
  // uniform 1/|A| of eq. 2) cancels in the normalisation but is kept for
  // clarity.
  const std::size_t n = f_norm.size();
  const double lambda = 1.0 / static_cast<double>(n);
  p.resize(n);
  double sum = 0.0;
  for (std::size_t a = 0; a < n; ++a) {
    p[a] = lambda * std::exp(-beta_ * f_norm[a] * slack);
    sum += p[a];
  }
  for (auto& v : p) v /= sum;
}

std::vector<double> EpdPolicy::probabilities(const hw::OppTable& opps,
                                             double slack) const {
  std::vector<double> f_norm;
  normalised_frequencies(opps, f_norm);
  std::vector<double> p;
  fill_probabilities(f_norm, slack, p);
  return p;
}

std::size_t EpdPolicy::sample(const hw::OppTable& opps, double slack,
                              common::Rng& rng) const {
  // The cache is keyed on the table's points, not its address: a table that
  // reuses a freed one's storage must not inherit its values.
  if (cached_points_ != opps.points()) {
    cached_points_ = opps.points();
    normalised_frequencies(opps, cached_f_norm_);
  }
  fill_probabilities(cached_f_norm_, slack, scratch_);
  return rng.discrete(scratch_);
}

std::vector<double> UpdPolicy::probabilities(const hw::OppTable& opps,
                                             double /*slack*/) const {
  return std::vector<double>(opps.size(), 1.0 / static_cast<double>(opps.size()));
}

std::size_t UpdPolicy::sample(const hw::OppTable& opps, double /*slack*/,
                              common::Rng& rng) const {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(opps.size()) - 1));
}

PolicyRegistry& policy_registry() {
  static PolicyRegistry registry("exploration policy");
  return registry;
}

std::unique_ptr<ExplorationPolicy> make_policy(const std::string& name) {
  return policy_registry().create(name);
}

namespace {

const PolicyRegistrar kRegisterEpd{
    policy_registry(), "epd",
    "the paper's slack-directed exponential distribution (eq. 2); keys: beta",
    [](const common::Spec& spec) {
      return std::make_unique<EpdPolicy>(spec.get_double("beta", 3.0));
    }};

const PolicyRegistrar kRegisterUpd{
    policy_registry(), "upd",
    "uniform random selection of prior work [19][21]",
    [](const common::Spec&) { return std::make_unique<UpdPolicy>(); }};

}  // namespace

EpsilonSchedule::EpsilonSchedule(const Params& params)
    : params_(params), epsilon_(params.epsilon0) {
  if (params_.alpha < 0.0 || params_.alpha >= 1.0) {
    throw std::invalid_argument("EpsilonSchedule: alpha must be in [0, 1)");
  }
  common::require_exploration_rate("EpsilonSchedule", "epsilon0",
                                   params_.epsilon0);
  common::require_exploration_rate("EpsilonSchedule", "eps-min",
                                   params_.epsilon_min);
}

bool EpsilonSchedule::converged() const noexcept {
  return epsilon_ <= params_.epsilon_min * 1.0000001;
}

void EpsilonSchedule::reset() noexcept {
  epsilon_ = params_.epsilon0;
  epoch_ = 0;
  convergence_epoch_ = 0;
}

void EpsilonSchedule::save_state(common::StateWriter& out) const {
  out.f64(epsilon_);
  out.size(epoch_);
  out.size(convergence_epoch_);
}

void EpsilonSchedule::load_state(common::StateReader& in) {
  epsilon_ = in.f64();
  epoch_ = in.size();
  convergence_epoch_ = in.size();
}

}  // namespace prime::rtm
