/// \file test_stats.cpp
/// \brief Unit tests for streaming statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "common/stats.hpp"

namespace prime::common {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(10.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, RejectsInvalidConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(50.0);   // clamps to bin 9
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.count(), 4u);
}

TEST(Histogram, PercentileOfUniformFill) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.percentile(50.0), 50.0, 1.5);
  EXPECT_NEAR(h.percentile(90.0), 90.0, 1.5);
  EXPECT_NEAR(h.percentile(0.0), 0.0, 1.5);
}

TEST(Histogram, PercentileEmptyReturnsLo) {
  Histogram h(5.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 5.0);
}

// Regression: p0 used to report lo_ unconditionally (target 0 matched the
// first bin even when empty) instead of the lowest populated bin.
TEST(Histogram, PercentileZeroSkipsEmptyLeadingBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(7.5);  // bin 7: everything below is empty
  h.add(7.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 8.0);
}

TEST(Histogram, PercentileAllMassInTopBin) {
  Histogram h(0.0, 10.0, 10);
  h.add(50.0);  // clamps into bin 9
  h.add(60.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 9.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 9.5);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
}

TEST(Histogram, PercentileSingleBin) {
  Histogram h(2.0, 4.0, 1);
  h.add(3.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 4.0);
}

TEST(Histogram, LoadStateRejectsBinCountsTheStreamCannotHold) {
  // A corrupt bin count must fail on the short read, not allocate 2^61 or
  // 2^33 counters first (std::length_error / std::bad_alloc).
  for (const std::uint64_t bins : {std::uint64_t{1} << 61,
                                   std::uint64_t{1} << 33}) {
    std::ostringstream out;
    StateWriter w(out);
    w.f64(0.0);
    w.f64(1.0);
    w.u64(bins);
    w.u64(3);  // one count, then the stream ends
    std::istringstream in(out.str());
    StateReader r(in);
    Histogram h(0.0, 1.0, 4);
    EXPECT_THROW(h.load_state(r), SerialError) << bins;
    EXPECT_EQ(h.bins(), 4u);
  }
}

TEST(MovingAverage, WindowEviction) {
  MovingAverage m(3);
  m.add(1.0);
  m.add(2.0);
  m.add(3.0);
  EXPECT_DOUBLE_EQ(m.mean(), 2.0);
  EXPECT_TRUE(m.full());
  m.add(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
}

TEST(MovingAverage, PartialWindow) {
  MovingAverage m(10);
  m.add(4.0);
  m.add(6.0);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_FALSE(m.full());
}

TEST(MovingAverage, ZeroCapacityClampedToOne) {
  MovingAverage m(0);
  EXPECT_EQ(m.capacity(), 1u);
  m.add(7.0);
  m.add(9.0);
  EXPECT_DOUBLE_EQ(m.mean(), 9.0);
}

TEST(MovingAverage, ResetEmpties) {
  MovingAverage m(4);
  m.add(1.0);
  m.reset();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
}

TEST(PercentileOf, InterpolatesSortedSamples) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile_of(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile_of(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile_of(v, 25.0), 2.0);
}

TEST(PercentileOf, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(percentile_of({}, 50.0), 0.0);
}

TEST(Mape, BasicRelativeError) {
  EXPECT_NEAR(mape({100.0, 200.0}, {110.0, 180.0}), (0.10 + 0.10) / 2.0, 1e-12);
}

TEST(Mape, SkipsZeroReference) {
  EXPECT_NEAR(mape({0.0, 100.0}, {5.0, 90.0}), 0.10, 1e-12);
}

TEST(Mape, EmptyIsZero) { EXPECT_DOUBLE_EQ(mape({}, {}), 0.0); }

/// Property: variance is never negative across random streams.
class StatsPropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsPropertySweep, VarianceNonNegative) {
  Rng r(GetParam());
  RunningStats s;
  for (int i = 0; i < 500; ++i) s.add(r.uniform(-100.0, 100.0));
  EXPECT_GE(s.variance(), 0.0);
  EXPECT_GE(s.max(), s.min());
  EXPECT_GE(s.mean(), s.min());
  EXPECT_LE(s.mean(), s.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsPropertySweep,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));

// --- Histogram merge ---------------------------------------------------------

TEST(HistogramMerge, EqualsSequentialFill) {
  Rng rng(11);
  Histogram all(0.0, 10.0, 64);
  Histogram a(0.0, 10.0, 64);
  Histogram b(0.0, 10.0, 64);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-1.0, 11.0);  // exercise clamping too
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  ASSERT_EQ(a.count(), all.count());
  for (std::size_t i = 0; i < all.bins(); ++i) {
    EXPECT_EQ(a.bin_count(i), all.bin_count(i)) << "bin " << i;
  }
  EXPECT_DOUBLE_EQ(a.percentile(95.0), all.percentile(95.0));
}

TEST(HistogramMerge, OrderInvariant) {
  Rng rng(12);
  Histogram ab(2.0, 4.0, 16);
  Histogram ba(2.0, 4.0, 16);
  Histogram a(2.0, 4.0, 16);
  Histogram b(2.0, 4.0, 16);
  for (int i = 0; i < 200; ++i) {
    (i % 3 == 0 ? a : b).add(rng.uniform(2.0, 4.0));
  }
  ab.merge(a);
  ab.merge(b);
  ba.merge(b);
  ba.merge(a);
  for (std::size_t i = 0; i < ab.bins(); ++i) {
    EXPECT_EQ(ab.bin_count(i), ba.bin_count(i));
  }
}

TEST(HistogramMerge, OperatorFormAccumulates) {
  Histogram a(0.0, 1.0, 4);
  Histogram b(0.0, 1.0, 4);
  a.add(0.1);
  b.add(0.9);
  a += b;
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.bin_count(0), 1u);
  EXPECT_EQ(a.bin_count(3), 1u);
}

TEST(HistogramMerge, IncompatibleGeometryThrows) {
  Histogram base(0.0, 1.0, 10);
  EXPECT_FALSE(base.bin_compatible(Histogram(0.0, 1.0, 11)));
  EXPECT_FALSE(base.bin_compatible(Histogram(0.0, 2.0, 10)));
  EXPECT_FALSE(base.bin_compatible(Histogram(-1.0, 1.0, 10)));
  EXPECT_TRUE(base.bin_compatible(Histogram(0.0, 1.0, 10)));
  Histogram other(0.0, 2.0, 10);
  EXPECT_THROW(base.merge(other), std::invalid_argument);
  EXPECT_THROW(base += Histogram(0.0, 1.0, 11), std::invalid_argument);
}

TEST(HistogramSerial, RoundTripsBitExact) {
  Histogram h(-1.5, 2.5, 7);
  for (int i = 0; i < 50; ++i) h.add(-2.0 + 0.1 * i);
  std::stringstream buf;
  StateWriter w(buf);
  h.save_state(w);
  Histogram restored(0.0, 1.0, 1);
  StateReader r(buf);
  restored.load_state(r);
  EXPECT_TRUE(h.bin_compatible(restored));
  ASSERT_EQ(restored.count(), h.count());
  for (std::size_t i = 0; i < h.bins(); ++i) {
    EXPECT_EQ(restored.bin_count(i), h.bin_count(i));
  }
  EXPECT_DOUBLE_EQ(restored.percentile(50.0), h.percentile(50.0));
}

TEST(HistogramSerial, CorruptTotalRejected) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.5);
  std::stringstream buf;
  StateWriter w(buf);
  h.save_state(w);
  std::string bytes = buf.str();
  // The trailing u64 is the total; flip a bit so it disagrees with the bins.
  bytes[bytes.size() - 8] ^= 1;
  std::stringstream bad(bytes);
  StateReader r(bad);
  Histogram target(0.0, 1.0, 1);
  EXPECT_THROW(target.load_state(r), SerialError);
}

// --- ExactSum ----------------------------------------------------------------

TEST(ExactSum, ExactForGridValues) {
  // Values on the 2^-50 grid accumulate with zero rounding.
  ExactSum s;
  EXPECT_TRUE(s.zero());
  s.add(0.5);
  s.add(0.25);
  s.add(-0.125);
  EXPECT_DOUBLE_EQ(s.value(), 0.625);
  EXPECT_FALSE(s.zero());
}

TEST(ExactSum, MergeIsAssociativeAndOrderInvariantOnRandomDoubles) {
  Rng rng(13);
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) values.push_back(rng.uniform(-1e6, 1e6));

  ExactSum sequential;
  for (const double v : values) sequential.add(v);

  // Three different groupings/orders over the same multiset.
  ExactSum a, b, c;
  for (int i = 0; i < 300; ++i) (i % 3 == 0 ? a : (i % 3 == 1 ? b : c))
      .add(values[static_cast<std::size_t>(i)]);
  ExactSum left;
  left += a;
  left += b;
  left += c;
  ExactSum right;
  right += c;
  right += b;
  right += a;
  EXPECT_TRUE(left == sequential);
  EXPECT_TRUE(right == sequential);
  EXPECT_EQ(left.value(), right.value());
}

TEST(ExactSum, QuantizationIsDeterministic) {
  // Two accumulators fed the same value always agree bit-for-bit, even off
  // the grid — the quantisation is a pure function of the input.
  ExactSum a, b;
  a.add(0.1);
  b.add(0.1);
  EXPECT_TRUE(a == b);
  // And the grid resolution is ~9e-16: a tiny value rounds to zero.
  ExactSum tiny;
  tiny.add(1e-20);
  EXPECT_TRUE(tiny.zero());
}

TEST(ExactSum, RejectsNonFiniteAndOverflowingValues) {
  ExactSum s;
  EXPECT_THROW(s.add(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(s.add(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(s.add(1e300), std::invalid_argument);
}

TEST(ExactSum, OverflowingSumThrowsAndKeepsTheAccumulator) {
  // 1.4e23 is addable on its own, but twice it passes 2^77 (~1.51e23), the
  // edge of the 128-bit accumulator.
  for (const double x : {1.4e23, -1.4e23}) {
    ExactSum s;
    s.add(x);
    EXPECT_THROW(s.add(x), std::overflow_error);
    EXPECT_EQ(s.value(), x);
  }
}

TEST(ExactSum, MergingLoadedAccumulatorsThatOverflowThrows) {
  // Two accumulators loaded at 2^126 grid units: their sum, 2^127, is one
  // past the largest signed 128-bit value.
  std::stringstream buf;
  StateWriter w(buf);
  w.u64(0);
  w.u64(std::uint64_t{1} << 62);
  ExactSum near_max;
  StateReader r(buf);
  near_max.load_state(r);
  ExactSum a = near_max;
  EXPECT_THROW(a += near_max, std::overflow_error);
  EXPECT_TRUE(a == near_max);
}

TEST(ExactSum, SerialRoundTripsBitExact) {
  ExactSum s;
  s.add(3.14159);
  s.add(-123.456);
  std::stringstream buf;
  StateWriter w(buf);
  s.save_state(w);
  ExactSum restored;
  StateReader r(buf);
  restored.load_state(r);
  EXPECT_TRUE(restored == s);
  EXPECT_EQ(restored.value(), s.value());
}

// --- percentiles_of ----------------------------------------------------------

TEST(PercentilesOf, MatchesRepeatedPercentileOf) {
  Rng rng(14);
  std::vector<double> samples;
  for (int i = 0; i < 777; ++i) samples.push_back(rng.uniform(-5.0, 5.0));
  const std::vector<double> ps = {0.0, 25.0, 50.0, 95.0, 99.0, 100.0};
  const std::vector<double> batch = percentiles_of(samples, ps);
  ASSERT_EQ(batch.size(), ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], percentile_of(samples, ps[i])) << "p" << ps[i];
  }
}

TEST(PercentilesOf, EmptyInputYieldsZeros) {
  const std::vector<double> out = percentiles_of({}, {50.0, 95.0});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
}

}  // namespace
}  // namespace prime::common
