#include "hw/opp.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace prime::hw {

using common::Hertz;
using common::Volt;

OppTable::OppTable(std::vector<Opp> points) : points_(std::move(points)) {
  if (points_.empty()) {
    throw std::invalid_argument("OppTable: at least one point required");
  }
  for (const auto& p : points_) {
    if (p.frequency <= 0.0 || p.voltage <= 0.0) {
      throw std::invalid_argument("OppTable: frequency and voltage must be > 0");
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Opp& a, const Opp& b) { return a.frequency < b.frequency; });
  for (std::size_t i = 0; i < points_.size(); ++i) points_[i].index = i;
}

OppTable OppTable::odroid_xu3_a15() {
  // 19 points, 200..2000 MHz. The voltage curve approximates the XU3 A15 ASV
  // table: 0.9 V at 200 MHz rising super-linearly to 1.3625 V at 2 GHz.
  std::vector<Opp> pts;
  pts.reserve(19);
  for (int m = 200; m <= 2000; m += 100) {
    const double x = (static_cast<double>(m) - 200.0) / 1800.0;  // 0..1
    const Volt v = 0.9000 + 0.2500 * x + 0.2125 * x * x;
    pts.push_back(Opp{0, common::mhz(static_cast<double>(m)), v});
  }
  return OppTable(std::move(pts));
}

OppTable OppTable::linear(std::size_t n, Hertz f_lo, Hertz f_hi, Volt v_lo,
                          Volt v_hi) {
  if (n == 0) throw std::invalid_argument("OppTable::linear: n must be >= 1");
  std::vector<Opp> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = n == 1 ? 0.0
                            : static_cast<double>(i) / static_cast<double>(n - 1);
    pts.push_back(Opp{0, f_lo + t * (f_hi - f_lo), v_lo + t * (v_hi - v_lo)});
  }
  return OppTable(std::move(pts));
}

std::size_t OppTable::lowest_at_least(Hertz f_min) const noexcept {
  for (const auto& p : points_) {
    if (p.frequency >= f_min) return p.index;
  }
  return points_.back().index;
}

std::size_t OppTable::highest_at_most(Hertz f_max) const noexcept {
  std::size_t best = 0;
  for (const auto& p : points_) {
    if (p.frequency <= f_max) best = p.index;
  }
  return best;
}

std::size_t OppTable::nearest(Hertz f) const noexcept {
  std::size_t best = 0;
  double best_err = std::abs(points_[0].frequency - f);
  for (const auto& p : points_) {
    const double err = std::abs(p.frequency - f);
    if (err < best_err) {
      best = p.index;
      best_err = err;
    }
  }
  return best;
}

std::size_t OppTable::clamp_index(long long index) const noexcept {
  if (index < 0) return 0;
  if (index >= static_cast<long long>(points_.size())) return points_.size() - 1;
  return static_cast<std::size_t>(index);
}

std::string OppTable::describe() const {
  std::ostringstream ss;
  ss << points_.size() << " OPPs, " << common::to_mhz(min().frequency) << '-'
     << common::to_mhz(max().frequency) << " MHz";
  return ss.str();
}

}  // namespace prime::hw
