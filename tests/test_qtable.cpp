/// \file test_qtable.cpp
/// \brief Unit tests for the Q-table and the eq. (3) Bellman update.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "rtm/qtable.hpp"

namespace prime::rtm {
namespace {

TEST(QTable, RejectsZeroDimensions) {
  EXPECT_THROW(QTable(0, 5), std::invalid_argument);
  EXPECT_THROW(QTable(5, 0), std::invalid_argument);
}

TEST(QTable, LoadStateRejectsDimensionsWhoseProductOverflows) {
  // 2^32 x 2^32 wraps to 0 in 64 bits: empty vectors would match the
  // wrapped product and a later best_action() would read out of bounds.
  std::ostringstream out;
  common::StateWriter w(out);
  w.size(std::size_t{1} << 32);
  w.size(std::size_t{1} << 32);
  w.vec_f64({});
  w.vec_u64({});
  w.size(0);
  std::istringstream in(out.str());
  common::StateReader r(in);
  QTable table(2, 3);
  EXPECT_THROW(table.load_state(r), common::SerialError);
  EXPECT_EQ(table.states(), 2u);
  EXPECT_EQ(table.actions(), 3u);
}

TEST(QTable, StartsZeroed) {
  const QTable q(4, 3);
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t a = 0; a < 3; ++a) {
      EXPECT_DOUBLE_EQ(q.q(s, a), 0.0);
      EXPECT_EQ(q.visits(s, a), 0u);
    }
  }
  EXPECT_EQ(q.total_updates(), 0u);
  EXPECT_EQ(q.visited_states(), 0u);
}

TEST(QTable, BoundsChecked) {
  QTable q(2, 2);
  EXPECT_THROW((void)q.q(2, 0), std::out_of_range);
  EXPECT_THROW((void)q.q(0, 2), std::out_of_range);
  EXPECT_THROW(q.set_q(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(q.update(0, 0, 1.0, 2, 0.5, 0.5), std::out_of_range);
  EXPECT_THROW((void)q.best_action(9), std::out_of_range);
}

TEST(QTable, BellmanUpdateEquation3) {
  QTable q(2, 2);
  q.set_q(1, 0, 4.0);  // max_a Q(s'=1, a) = 4
  q.set_q(0, 0, 2.0);
  // Q <- (1-a) Q + a (r + g max) = 0.75*2 + 0.25*(1 + 0.5*4) = 1.5 + 0.75
  q.update(0, 0, 1.0, 1, 0.25, 0.5);
  EXPECT_NEAR(q.q(0, 0), 2.25, 1e-12);
  EXPECT_EQ(q.visits(0, 0), 1u);
  EXPECT_EQ(q.total_updates(), 1u);
}

TEST(QTable, RepeatedUpdatesConvergeToFixedPoint) {
  QTable q(1, 1);
  // Single state-action with reward 1, discount 0.5: fixed point Q = 2.
  for (int i = 0; i < 500; ++i) q.update(0, 0, 1.0, 0, 0.2, 0.5);
  EXPECT_NEAR(q.q(0, 0), 2.0, 1e-6);
}

TEST(QTable, BestActionTieBreaksTowardSlowerOpp) {
  QTable q(1, 4);
  // All zeros: lowest index (slowest, lowest-energy OPP) wins ties.
  EXPECT_EQ(q.best_action(0), 0u);
  q.set_q(0, 2, 1.0);
  q.set_q(0, 3, 1.0);
  EXPECT_EQ(q.best_action(0), 2u);
}

TEST(QTable, BestValue) {
  QTable q(1, 3);
  q.set_q(0, 1, -1.0);
  q.set_q(0, 2, 3.5);
  EXPECT_DOUBLE_EQ(q.best_value(0), 3.5);
}

TEST(QTable, GreedyPolicy) {
  QTable q(3, 2);
  q.set_q(0, 1, 1.0);
  q.set_q(2, 0, 2.0);
  const auto policy = q.greedy_policy();
  ASSERT_EQ(policy.size(), 3u);
  EXPECT_EQ(policy[0], 1u);
  EXPECT_EQ(policy[1], 0u);
  EXPECT_EQ(policy[2], 0u);
}

TEST(QTable, VisitedStatesCoverage) {
  QTable q(4, 2);
  q.update(0, 0, 0.0, 0, 0.5, 0.5);
  q.update(0, 1, 0.0, 0, 0.5, 0.5);
  q.update(3, 0, 0.0, 0, 0.5, 0.5);
  EXPECT_EQ(q.visited_states(), 2u);
}

TEST(QTable, ResetZeroes) {
  QTable q(2, 2);
  q.update(0, 0, 5.0, 1, 0.5, 0.5);
  q.reset();
  EXPECT_DOUBLE_EQ(q.q(0, 0), 0.0);
  EXPECT_EQ(q.total_updates(), 0u);
  EXPECT_EQ(q.visited_states(), 0u);
}

TEST(QTable, CsvRoundTrip) {
  QTable q(3, 4);
  q.update(1, 2, 1.5, 0, 0.3, 0.5);
  q.set_q(2, 3, -0.75);
  const std::string csv = q.to_csv();
  QTable back(3, 4);
  back.load_csv(csv);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t a = 0; a < 4; ++a) {
      EXPECT_DOUBLE_EQ(back.q(s, a), q.q(s, a)) << s << "," << a;
      EXPECT_EQ(back.visits(s, a), q.visits(s, a));
    }
  }
}

TEST(QTable, LoadCsvRejectsWrongShape) {
  QTable small(1, 1);
  QTable big(5, 5);
  EXPECT_THROW(small.load_csv(big.to_csv()), std::runtime_error);
  EXPECT_THROW(small.load_csv("foo,bar\n1,2\n"), std::runtime_error);
}

TEST(QTable, LoadCsvRejectsMalformedCells) {
  QTable q(2, 2);
  // strtoull/strtod with a null endptr used to read these as 0 — the corrupt
  // row would silently overwrite entry (0, 0).
  EXPECT_THROW(q.load_csv("state,action,q,visits\nabc,0,1.0,0\n"),
               std::runtime_error);
  EXPECT_THROW(q.load_csv("state,action,q,visits\n0,0,notanumber,0\n"),
               std::runtime_error);
  EXPECT_THROW(q.load_csv("state,action,q,visits\n0,0,1.5x,0\n"),
               std::runtime_error);
  EXPECT_THROW(q.load_csv("state,action,q,visits\n0,0,1.0,-3\n"),
               std::runtime_error);
  // A row too short for the mandatory columns names its width.
  EXPECT_THROW(q.load_csv("state,action,q,visits\n0,0\n"),
               std::runtime_error);
}

TEST(QTable, LoadCsvRejectsDuplicateEntries) {
  QTable q(2, 2);
  try {
    q.load_csv("state,action,q,visits\n0,1,1.0,0\n0,1,2.0,0\n");
    FAIL() << "duplicate (state, action) did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("(0, 1)"), std::string::npos);
  }
}

TEST(QTable, LoadCsvFailureLeavesTableUnchanged) {
  QTable q(2, 2);
  q.set_q(0, 0, 7.0);
  q.set_q(1, 1, -2.0);
  // Row 0 is valid and targets (0, 0); row 1 is corrupt. A partial apply
  // would clobber (0, 0) before throwing — the staged commit must not.
  EXPECT_THROW(q.load_csv("state,action,q,visits\n0,0,99.0,0\n1,1,bad,0\n"),
               std::runtime_error);
  EXPECT_DOUBLE_EQ(q.q(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(q.q(1, 1), -2.0);
}

/// Property: the Bellman update is a contraction: Q values remain bounded by
/// r_max / (1 - discount) for bounded rewards.
class QTableContraction : public ::testing::TestWithParam<double> {};

TEST_P(QTableContraction, ValuesStayBounded) {
  const double discount = GetParam();
  QTable q(5, 3);
  const double r_max = 2.0;
  const double bound = r_max / (1.0 - discount) + 1e-9;
  std::uint64_t rngstate = 7;
  for (int i = 0; i < 5000; ++i) {
    const auto s = static_cast<std::size_t>(common::splitmix64_next(rngstate) % 5);
    const auto a = static_cast<std::size_t>(common::splitmix64_next(rngstate) % 3);
    const auto sn = static_cast<std::size_t>(common::splitmix64_next(rngstate) % 5);
    const double r = r_max * (static_cast<double>(common::splitmix64_next(rngstate) % 1000) / 500.0 - 1.0);
    q.update(s, a, r, sn, 0.3, discount);
  }
  for (std::size_t s = 0; s < 5; ++s) {
    for (std::size_t a = 0; a < 3; ++a) {
      EXPECT_LE(std::abs(q.q(s, a)), bound);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Discounts, QTableContraction,
                         ::testing::Values(0.1, 0.5, 0.9));

// --- update_and_best_action == update() then best_action() -------------------

/// How the table's cells (and the rewards) are filled.
enum class Fill { kRandom, kTies, kSignedZeros, kNanFirst, kNanInside, kInf };

/// Which cell each update targets.
enum class Target {
  kOtherRow,       ///< random (s, a), s_next != s
  kSameRow,        ///< random (s, a), s_next == s
  kSameRowArgmax,  ///< a = argmax of row s, s_next == s: the argmax may fall
};

/// states x actions.
using Shape = std::pair<std::size_t, std::size_t>;

/// (shape, fill, target).
class QTableFusedGrid
    : public testing::TestWithParam<std::tuple<Shape, Fill, Target>> {
 protected:
  std::size_t states() const { return std::get<0>(GetParam()).first; }
  std::size_t actions() const { return std::get<0>(GetParam()).second; }
  Fill fill() const { return std::get<1>(GetParam()); }
  Target target() const { return std::get<2>(GetParam()); }

  double draw(common::Rng& rng) const {
    const double inf = std::numeric_limits<double>::infinity();
    switch (fill()) {
      case Fill::kTies:
        return static_cast<double>(rng.uniform_int(-1, 1));
      case Fill::kSignedZeros:
        return rng.bernoulli(0.5) ? 0.0 : -0.0;
      case Fill::kInf:
        // inf - inf in an update also feeds NaN cells into the rows.
        switch (rng.uniform_int(0, 3)) {
          case 0: return inf;
          case 1: return -inf;
          default: return rng.uniform(-1.0, 1.0);
        }
      default:
        return rng.uniform(-1.0, 1.0);
    }
  }

  QTable make_table(common::Rng& rng) const {
    QTable t(states(), actions());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t s = 0; s < states(); ++s) {
      for (std::size_t a = 0; a < actions(); ++a) t.set_q(s, a, draw(rng));
      if (fill() == Fill::kNanFirst) t.set_q(s, 0, nan);
      if (fill() == Fill::kNanInside) t.set_q(s, actions() / 2, nan);
    }
    return t;
  }
};

void expect_same_bits(const QTable& a, const QTable& b) {
  ASSERT_EQ(a.total_updates(), b.total_updates());
  for (std::size_t s = 0; s < a.states(); ++s) {
    for (std::size_t x = 0; x < a.actions(); ++x) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.q(s, x)),
                std::bit_cast<std::uint64_t>(b.q(s, x)))
          << "cell (" << s << ", " << x << ")";
      ASSERT_EQ(a.visits(s, x), b.visits(s, x));
    }
  }
}

TEST_P(QTableFusedGrid, MatchesUpdateThenBestAction) {
  common::Rng rng(states() * 131 + actions());
  QTable fused = make_table(rng);
  QTable reference = fused;
  int fell = 0;  // updates that lowered the cell they targeted
  for (int step = 0; step < 400; ++step) {
    const auto s = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(states()) - 1));
    const auto drawn_a = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(actions()) - 1));
    const std::size_t a = target() == Target::kSameRowArgmax
                              ? reference.best_action(s)
                              : drawn_a;
    const std::size_t s_next = target() == Target::kOtherRow
                                   ? (s + 1 + step % (states() - 1)) % states()
                                   : s;
    const double reward = draw(rng);
    const double alpha = step % 3 == 0 ? 1.0 : 0.3;
    const double discount = step % 5 == 0 ? 0.0 : 0.9;
    const std::size_t got =
        fused.update_and_best_action(s, a, reward, s_next, alpha, discount);
    const double before = reference.q(s, a);
    reference.update(s, a, reward, s_next, alpha, discount);
    if (reference.q(s, a) < before) ++fell;
    ASSERT_EQ(got, reference.best_action(s_next)) << "step " << step;
    expect_same_bits(fused, reference);
  }
  // The argmax-targeting mode exists to reach the "argmax fell" rescan.
  if (target() == Target::kSameRowArgmax && fill() == Fill::kRandom) {
    EXPECT_GT(fell, 0);
  }
}

TEST_P(QTableFusedGrid, BoundsCheckedLikeUpdate) {
  QTable t(states(), actions());
  EXPECT_THROW((void)t.update_and_best_action(states(), 0, 0.0, 0, 0.5, 0.9),
               std::out_of_range);
  EXPECT_THROW((void)t.update_and_best_action(0, actions(), 0.0, 0, 0.5, 0.9),
               std::out_of_range);
  EXPECT_THROW((void)t.update_and_best_action(0, 0, 0.0, states(), 0.5, 0.9),
               std::out_of_range);
  EXPECT_EQ(t.total_updates(), 0u);
}

std::string fused_grid_name(
    const testing::TestParamInfo<QTableFusedGrid::ParamType>& info) {
  static const char* const kFill[] = {"random",    "ties",       "signed_zeros",
                                      "nan_first", "nan_inside", "inf"};
  static const char* const kTarget[] = {"other", "self", "self_argmax"};
  const Shape shape = std::get<0>(info.param);
  return std::to_string(shape.first) + "x" + std::to_string(shape.second) +
         "_" + kFill[static_cast<int>(std::get<1>(info.param))] + "_" +
         kTarget[static_cast<int>(std::get<2>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    ShapeFillLoop, QTableFusedGrid,
    testing::Combine(
        testing::Values(Shape(2, 1), Shape(2, 2), Shape(3, 5), Shape(25, 19)),
        testing::Values(Fill::kRandom, Fill::kTies, Fill::kSignedZeros,
                        Fill::kNanFirst, Fill::kNanInside, Fill::kInf),
        testing::Values(Target::kOtherRow, Target::kSameRow,
                        Target::kSameRowArgmax)),
    fused_grid_name);

}  // namespace
}  // namespace prime::rtm
