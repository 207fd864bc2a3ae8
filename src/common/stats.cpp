#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/serial.hpp"

namespace prime::common {

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  mean_ += delta * nb / nt;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() noexcept { *this = RunningStats{}; }

void RunningStats::save_state(StateWriter& out) const {
  out.size(n_);
  out.f64(mean_);
  out.f64(m2_);
  out.f64(min_);
  out.f64(max_);
}

void RunningStats::load_state(StateReader& in) {
  n_ = in.size();
  mean_ = in.f64();
  m2_ = in.f64();
  min_ = in.f64();
  max_ = in.f64();
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::cv() const noexcept {
  return mean_ == 0.0 ? 0.0 : stddev() / std::abs(mean_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be >= 1");
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
}

void Histogram::add(double x) noexcept {
  std::size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<std::size_t>((x - lo_) / width_);
    if (idx >= counts_.size()) idx = counts_.size() - 1;
  }
  ++counts_[idx];
  ++total_;
}

std::size_t Histogram::bin_count(std::size_t i) const { return counts_.at(i); }

double Histogram::bin_lo(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("Histogram::bin_lo");
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::percentile(double p) const {
  if (total_ == 0) return lo_;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    // Empty bins can never hold the target mass: without the counts_ guard,
    // p=0 (target 0) would report the range floor even when the lowest
    // populated sample sits bins above it.
    if (next >= target && counts_[i] > 0) {
      const double frac =
          counts_[i] == 0 ? 0.0 : (target - cum) / static_cast<double>(counts_[i]);
      return bin_lo(i) + frac * width_;
    }
    cum = next;
  }
  return hi_;
}

bool Histogram::bin_compatible(const Histogram& other) const noexcept {
  return lo_ == other.lo_ && hi_ == other.hi_ &&
         counts_.size() == other.counts_.size();
}

void Histogram::merge(const Histogram& other) {
  if (!bin_compatible(other)) {
    throw std::invalid_argument(
        "Histogram::merge: incompatible bins — [" + std::to_string(lo_) +
        ", " + std::to_string(hi_) + ") x" + std::to_string(counts_.size()) +
        " vs [" + std::to_string(other.lo_) + ", " +
        std::to_string(other.hi_) + ") x" +
        std::to_string(other.counts_.size()));
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

Histogram& Histogram::operator+=(const Histogram& other) {
  merge(other);
  return *this;
}

void Histogram::save_state(StateWriter& out) const {
  out.f64(lo_);
  out.f64(hi_);
  out.size(counts_.size());
  for (const std::size_t c : counts_) out.u64(static_cast<std::uint64_t>(c));
  out.size(total_);
}

void Histogram::load_state(StateReader& in) {
  const double lo = in.f64();
  const double hi = in.f64();
  const std::size_t bins = in.size();
  if (bins == 0 || !(hi > lo)) {
    throw SerialError("Histogram::load_state: invalid range/bin count");
  }
  // The counts grow with what was read, so a corrupt bin count fails on
  // the short read instead of allocating what it claims.
  std::vector<std::size_t> counts;
  counts.reserve(std::min<std::size_t>(bins, StateReader::kVecChunk));
  std::size_t total = 0;
  while (counts.size() < bins) {
    counts.push_back(static_cast<std::size_t>(in.u64()));
    total += counts.back();
  }
  const std::size_t stored_total = in.size();
  if (stored_total != total) {
    throw SerialError("Histogram::load_state: total does not match bin sum");
  }
  lo_ = lo;
  hi_ = hi;
  width_ = (hi - lo) / static_cast<double>(bins);
  counts_ = std::move(counts);
  total_ = total;
}

void ExactSum::add(double x) {
  if (!addable(x)) {
    // |x| >= 2^77 (~1.5e23) would shift the mantissa past the accumulator's
    // headroom. Population metrics never get near this.
    throw std::invalid_argument(std::isfinite(x)
                                    ? "ExactSum::add: magnitude too large"
                                    : "ExactSum::add: value must be finite");
  }
  if (x == 0.0) return;
  // Decompose exactly: every finite double is mi * 2^(e-53) with mi a 53-bit
  // integer, so x on the 2^-kFracBits grid is mi shifted by e-53+kFracBits.
  int e = 0;
  const double m = std::frexp(x, &e);
  const auto mi = static_cast<std::int64_t>(std::ldexp(m, 53));  // exact
  const int shift = e - 53 + kFracBits;
  __int128 q = 0;
  if (shift >= 0) {
    q = static_cast<__int128>(mi) << shift;  // shift <= 74: x is addable()
  } else if (shift >= -62) {
    // Deterministic round-half-away-from-zero onto the grid.
    const int s = -shift;
    const std::int64_t bias = std::int64_t{1} << (s - 1);
    q = mi >= 0 ? (static_cast<__int128>(mi) + bias) >> s
                : -((static_cast<__int128>(-mi) + bias) >> s);
  }
  // else: |x| below half the grid quantum rounds to exactly 0.
  fold(q);
}

void ExactSum::fold(__int128 q) {
  __int128 sum = 0;
  if (__builtin_add_overflow(acc_, q, &sum)) {
    throw std::overflow_error("ExactSum: sum exceeds the accumulator's range "
                              "(magnitude 2^77, ~1.5e23)");
  }
  acc_ = sum;
}

double ExactSum::value() const noexcept {
  return std::ldexp(static_cast<double>(acc_), -kFracBits);
}

void ExactSum::save_state(StateWriter& out) const {
  const auto u = static_cast<unsigned __int128>(acc_);
  out.u64(static_cast<std::uint64_t>(u));
  out.u64(static_cast<std::uint64_t>(u >> 64));
}

void ExactSum::load_state(StateReader& in) {
  const std::uint64_t lo = in.u64();
  const std::uint64_t hi = in.u64();
  acc_ = static_cast<__int128>(
      (static_cast<unsigned __int128>(hi) << 64) |
      static_cast<unsigned __int128>(lo));
}

MovingAverage::MovingAverage(std::size_t window)
    : buf_(window == 0 ? 1 : window, 0.0) {}

void MovingAverage::add(double x) noexcept {
  if (size_ == buf_.size()) {
    sum_ -= buf_[head_];
  } else {
    ++size_;
  }
  buf_[head_] = x;
  sum_ += x;
  head_ = (head_ + 1) % buf_.size();
}

double MovingAverage::mean() const noexcept {
  return size_ == 0 ? 0.0 : sum_ / static_cast<double>(size_);
}

void MovingAverage::reset() noexcept {
  std::fill(buf_.begin(), buf_.end(), 0.0);
  head_ = 0;
  size_ = 0;
  sum_ = 0.0;
}

namespace {

/// Interpolated rank lookup over an already-sorted sample vector — the one
/// percentile definition percentile_of and percentiles_of share.
double percentile_of_sorted(const std::vector<double>& sorted, double p) {
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

double percentile_of(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return percentile_of_sorted(samples, p);
}

std::vector<double> percentiles_of(std::vector<double> samples,
                                   const std::vector<double>& ps) {
  if (samples.empty()) return std::vector<double>(ps.size(), 0.0);
  std::sort(samples.begin(), samples.end());
  std::vector<double> out;
  out.reserve(ps.size());
  for (const double p : ps) out.push_back(percentile_of_sorted(samples, p));
  return out;
}

double mape(const std::vector<double>& actual,
            const std::vector<double>& predicted) {
  const std::size_t n = std::min(actual.size(), predicted.size());
  double total = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (actual[i] == 0.0) continue;
    total += std::abs(actual[i] - predicted[i]) / std::abs(actual[i]);
    ++used;
  }
  return used == 0 ? 0.0 : total / static_cast<double>(used);
}

}  // namespace prime::common
