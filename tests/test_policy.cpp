/// \file test_policy.cpp
/// \brief Unit tests for EPD/UPD exploration (eq. 2) and the eq. (6) schedule.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/serial.hpp"
#include "rtm/policy.hpp"

namespace prime::rtm {
namespace {

TEST(EpdPolicy, UniformAtZeroSlack) {
  const EpdPolicy epd;
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  const auto p = epd.probabilities(opps, 0.0);
  ASSERT_EQ(p.size(), opps.size());
  for (const double v : p) EXPECT_NEAR(v, 1.0 / 19.0, 1e-12);
}

TEST(EpdPolicy, PositiveSlackFavoursSlowOpps) {
  const EpdPolicy epd;
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  const auto p = epd.probabilities(opps, 0.4);
  EXPECT_GT(p.front(), p.back());
  // Monotone decreasing in frequency.
  for (std::size_t i = 1; i < p.size(); ++i) EXPECT_LT(p[i], p[i - 1]);
}

TEST(EpdPolicy, NegativeSlackFavoursFastOpps) {
  const EpdPolicy epd;
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  const auto p = epd.probabilities(opps, -0.4);
  EXPECT_GT(p.back(), p.front());
}

TEST(EpdPolicy, ProbabilitiesNormalised) {
  const EpdPolicy epd(5.0);
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  for (double slack : {-0.5, -0.1, 0.0, 0.2, 0.5}) {
    const auto p = epd.probabilities(opps, slack);
    EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 1.0, 1e-9);
  }
}

TEST(EpdPolicy, LargerBetaConcentratesHarder) {
  const EpdPolicy mild(1.0);
  const EpdPolicy sharp(8.0);
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  const auto pm = mild.probabilities(opps, 0.4);
  const auto ps = sharp.probabilities(opps, 0.4);
  EXPECT_GT(ps.front(), pm.front());
}

TEST(EpdPolicy, SamplingFollowsDistribution) {
  const EpdPolicy epd;
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  common::Rng rng(3);
  const int n = 20000;
  std::vector<int> counts(opps.size(), 0);
  for (int i = 0; i < n; ++i) ++counts[epd.sample(opps, 0.4, rng)];
  // Slow half should receive clearly more samples than the fast half.
  int slow = 0;
  int fast = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    (i < counts.size() / 2 ? slow : fast) += counts[i];
  }
  EXPECT_GT(slow, fast * 3 / 2);
}

TEST(UpdPolicy, UniformRegardlessOfSlack) {
  const UpdPolicy upd;
  const hw::OppTable opps = hw::OppTable::odroid_xu3_a15();
  for (double slack : {-0.5, 0.0, 0.5}) {
    const auto p = upd.probabilities(opps, slack);
    for (const double v : p) EXPECT_NEAR(v, 1.0 / 19.0, 1e-12);
  }
}

TEST(MakePolicy, Factory) {
  EXPECT_EQ(make_policy("epd")->name(), "epd");
  EXPECT_EQ(make_policy("upd")->name(), "upd");
  EXPECT_THROW(make_policy("thompson"), std::invalid_argument);
}

TEST(EpsilonSchedule, RejectsBadAlpha) {
  EpsilonSchedule::Params p;
  p.alpha = 1.0;
  EXPECT_THROW(EpsilonSchedule{p}, std::invalid_argument);
  p.alpha = -0.1;
  EXPECT_THROW(EpsilonSchedule{p}, std::invalid_argument);
}

TEST(EpsilonSchedule, Eq6DecayAcceleratesWithEpoch) {
  EpsilonSchedule s;  // paper eq. (6) by default
  const double e0 = s.value();
  s.advance();
  const double drop1 = e0 - s.value();
  for (int i = 0; i < 98; ++i) s.advance();
  const double before = s.value();
  s.advance();
  const double drop100 = before - s.value();
  EXPECT_GT(drop100, drop1);  // super-exponential collapse
}

TEST(EpsilonSchedule, StaysHighEarlyThenCollapses) {
  EpsilonSchedule s;
  for (int i = 0; i < 40; ++i) s.advance();
  EXPECT_GT(s.value(), 0.5);  // still mostly exploring at epoch 40
  for (int i = 0; i < 200; ++i) s.advance();
  EXPECT_TRUE(s.converged());
}

TEST(EpsilonSchedule, RewardBoostAcceleratesConvergence) {
  EpsilonSchedule plain;
  EpsilonSchedule boosted;
  for (int i = 0; i < 500; ++i) {
    plain.advance(0.0);
    boosted.advance(1.0);
  }
  EXPECT_TRUE(plain.converged());
  EXPECT_TRUE(boosted.converged());
  EXPECT_LT(boosted.convergence_epoch(), plain.convergence_epoch());
}

TEST(EpsilonSchedule, GeometricModeIsConstantRate) {
  EpsilonSchedule::Params p;
  p.decay = EpsilonDecay::kGeometric;
  p.alpha = 0.99;
  EpsilonSchedule s(p);
  const double r1 = [&] {
    const double before = s.value();
    s.advance();
    return s.value() / before;
  }();
  const double r2 = [&] {
    const double before = s.value();
    s.advance();
    return s.value() / before;
  }();
  EXPECT_NEAR(r1, r2, 1e-12);
  EXPECT_NEAR(r1, std::exp(-0.01), 1e-12);
}

TEST(EpsilonSchedule, FloorIsSticky) {
  EpsilonSchedule s;
  for (int i = 0; i < 1000; ++i) s.advance();
  EXPECT_DOUBLE_EQ(s.value(), s.params().epsilon_min);
  const std::size_t conv = s.convergence_epoch();
  s.advance();
  EXPECT_EQ(s.convergence_epoch(), conv);  // first crossing is recorded once
}

TEST(EpsilonSchedule, ShouldExploreMatchesEpsilon) {
  EpsilonSchedule::Params p;
  p.epsilon0 = 0.25;
  p.alpha = 0.999999;  // effectively frozen
  EpsilonSchedule s(p);
  common::Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (s.should_explore(rng)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(EpsilonSchedule, ResetRestores) {
  EpsilonSchedule s;
  for (int i = 0; i < 300; ++i) s.advance();
  s.reset();
  EXPECT_DOUBLE_EQ(s.value(), s.params().epsilon0);
  EXPECT_EQ(s.epoch(), 0u);
  EXPECT_EQ(s.convergence_epoch(), 0u);
}

// --- The floor short-circuit of EpsilonSchedule::advance ---------------------

/// EpsilonSchedule::advance as it was before the floor short-circuit: every
/// call multiplies by exp(-exponent), then clamps.
struct ReferenceEpsilon {
  EpsilonSchedule::Params params;
  double epsilon;
  std::size_t epoch = 0;
  std::size_t convergence_epoch = 0;

  explicit ReferenceEpsilon(const EpsilonSchedule::Params& p)
      : params(p), epsilon(p.epsilon0) {}

  void advance(double smoothed_payoff) {
    ++epoch;
    const double boost =
        1.0 + params.reward_boost * (smoothed_payoff > 0.0 ? smoothed_payoff : 0.0);
    double exponent = (1.0 - params.alpha) * boost;
    if (params.decay == EpsilonDecay::kPaperEq6) {
      exponent *= static_cast<double>(epoch);
    }
    epsilon *= std::exp(-exponent);
    if (epsilon < params.epsilon_min) {
      epsilon = params.epsilon_min;
      if (convergence_epoch == 0) convergence_epoch = epoch;
    }
  }

  std::string state_bytes() const {
    std::ostringstream out;
    common::StateWriter w(out);
    w.f64(epsilon);
    w.size(epoch);
    w.size(convergence_epoch);
    return out.str();
  }
};

std::string state_bytes(const EpsilonSchedule& s) {
  std::ostringstream out;
  common::StateWriter w(out);
  s.save_state(w);
  return out.str();
}

/// Runs 10k advance() calls on both and requires identical bits throughout.
void expect_matches_reference(const EpsilonSchedule::Params& p,
                              double (*payoff)(std::size_t)) {
  EpsilonSchedule schedule(p);
  ReferenceEpsilon reference(p);
  for (std::size_t i = 0; i < 10000; ++i) {
    schedule.advance(payoff(i));
    reference.advance(payoff(i));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(schedule.value()),
              std::bit_cast<std::uint64_t>(reference.epsilon))
        << "call " << i;
    ASSERT_EQ(schedule.convergence_epoch(), reference.convergence_epoch)
        << "call " << i;
  }
  EXPECT_EQ(schedule.epoch(), reference.epoch);
  EXPECT_EQ(state_bytes(schedule), reference.state_bytes());
}

double zero_payoff(std::size_t) { return 0.0; }
double mixed_payoff(std::size_t i) {
  static const double kCycle[] = {0.4, -0.2, 0.0, 1.5, -3.0, 0.05};
  return kCycle[i % 6];
}
double nan_payoff(std::size_t i) {
  return i % 7 == 3 ? std::numeric_limits<double>::quiet_NaN() : 0.3;
}
double late_positive_payoff(std::size_t i) {
  // Zero until well past the floor, then a positive pay-off every third call.
  return i >= 2000 && i % 3 == 0 ? 0.5 : 0.0;
}
double huge_payoff(std::size_t i) {
  return i % 2 == 0 ? std::numeric_limits<double>::infinity() : 1e300;
}

TEST(EpsilonFloorShortCircuit, DefaultScheduleMatchesTheOldLoop) {
  expect_matches_reference(EpsilonSchedule::Params{}, zero_payoff);
  expect_matches_reference(EpsilonSchedule::Params{}, mixed_payoff);
}

TEST(EpsilonFloorShortCircuit, StartingAtTheFloorStillRecordsConvergence) {
  // epsilon0 == epsilon_min: the first advance() must still clamp once and
  // record its epoch; a short-circuit without the convergence guard would
  // leave convergence_epoch at 0.
  EpsilonSchedule::Params p;
  p.epsilon0 = p.epsilon_min;
  expect_matches_reference(p, zero_payoff);
  EpsilonSchedule s(p);
  s.advance();
  EXPECT_EQ(s.convergence_epoch(), 1u);
}

TEST(EpsilonFloorShortCircuit, NegativeRewardBoostLiftsEpsilonOffTheFloor) {
  // A negative exponent makes exp(-exponent) > 1: epsilon must leave the
  // floor exactly as the old loop lets it.
  EpsilonSchedule::Params p;
  p.reward_boost = -5.0;
  expect_matches_reference(p, late_positive_payoff);
  expect_matches_reference(p, mixed_payoff);
  p.decay = EpsilonDecay::kGeometric;
  expect_matches_reference(p, late_positive_payoff);
}

TEST(EpsilonFloorShortCircuit, NanAndHugePayoffs) {
  EpsilonSchedule::Params p;
  expect_matches_reference(p, nan_payoff);
  expect_matches_reference(p, huge_payoff);
  p.decay = EpsilonDecay::kGeometric;
  expect_matches_reference(p, nan_payoff);
}

TEST(EpsilonFloorShortCircuit, ZeroNegativeAndInfiniteFloors) {
  EpsilonSchedule::Params p;
  for (const double floor : {0.0, -0.0}) {
    p.epsilon_min = floor;
    expect_matches_reference(p, mixed_payoff);
  }
  // A negative floor is approached from below forever and an infinite one
  // turns NaN (inf * exp(-huge) = inf * 0): both are rejected up front, as
  // are a negative or non-finite epsilon0. The error names the spec key.
  const auto rejection = [](const EpsilonSchedule::Params& params) {
    try {
      EpsilonSchedule schedule(params);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  for (const double bad : {-0.5, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EpsilonSchedule::Params floor;
    floor.epsilon_min = bad;
    EXPECT_NE(rejection(floor).find("eps-min"), std::string::npos) << bad;
    EpsilonSchedule::Params start;
    start.epsilon0 = bad;
    EXPECT_NE(rejection(start).find("epsilon0"), std::string::npos) << bad;
  }
}

// --- The allocation-free EPD sample ------------------------------------------

std::string rng_bytes(const common::Rng& rng) {
  std::ostringstream out;
  common::StateWriter w(out);
  rng.save_state(w);
  return out.str();
}

TEST(EpdSample, MatchesDiscreteOverProbabilitiesAcrossTables) {
  // Alternating tables force the per-table f / f_max cache to refill; the
  // two 19-point tables differ only in their frequencies.
  const hw::OppTable xu3 = hw::OppTable::odroid_xu3_a15();
  const hw::OppTable flat19 = hw::OppTable::linear(19, 3.0e8, 1.7e9, 0.9, 1.3);
  const hw::OppTable small = hw::OppTable::linear(5, 2.0e8, 1.4e9, 0.9, 1.2);
  const hw::OppTable* const tables[] = {&xu3, &flat19, &xu3, &small, &small,
                                        &flat19};
  const double slacks[] = {-0.7, -0.1, -0.0, 0.0, 0.05, 0.8};
  for (const double beta : {3.0, 0.5}) {
    const EpdPolicy policy(beta);
    common::Rng sampled(11);
    common::Rng reference(11);
    for (int round = 0; round < 40; ++round) {
      for (const hw::OppTable* table : tables) {
        for (const double slack : slacks) {
          const std::size_t got = policy.sample(*table, slack, sampled);
          const std::size_t want =
              reference.discrete(policy.probabilities(*table, slack));
          ASSERT_EQ(got, want) << "beta " << beta << " slack " << slack;
          ASSERT_EQ(rng_bytes(sampled), rng_bytes(reference));
        }
      }
    }
  }
}

}  // namespace
}  // namespace prime::rtm
