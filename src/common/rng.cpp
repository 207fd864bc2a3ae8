#include "common/rng.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/serial.hpp"

namespace prime::common {

std::uint64_t derive_seed(std::uint64_t base_seed,
                          std::uint64_t stream_index) noexcept {
  // Jump the splitmix64 state walk directly to the stream_index-th step
  // (the walk is a constant-gamma stride), then take one output.
  std::uint64_t state = base_seed + stream_index * 0x9E3779B97F4A7C15ULL;
  return splitmix64_next(state);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64_next(sm);
  // xoshiro must not start from the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo >= hi) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Rejection-free Lemire-style multiply-shift would bias negligibly for our
  // span sizes; use simple modulo with 64-bit source, bias < 2^-40 here.
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double Rng::exponential(double rate) noexcept {
  double u = uniform();
  if (u < 1.0e-300) u = 1.0e-300;
  return -std::log(u) / rate;
}

std::size_t Rng::discrete(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (weights.empty()) return 0;
  if (total <= 0.0) return weights.size() - 1;
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;
}

Rng Rng::fork() noexcept {
  return Rng{next_u64() ^ 0xA3EC647659359ACDULL};
}

void Rng::save_state(StateWriter& out) const {
  for (const std::uint64_t word : state_) out.u64(word);
  out.f64(cached_normal_);
  out.boolean(has_cached_normal_);
}

void Rng::load_state(StateReader& in) {
  for (std::uint64_t& word : state_) word = in.u64();
  cached_normal_ = in.f64();
  has_cached_normal_ = in.boolean();
}

void require_exploration_rate(const char* owner, const char* key,
                              double value) {
  if (!std::isfinite(value) || value < 0.0) {
    throw std::invalid_argument(std::string(owner) + ": " + key +
                                " must be finite and >= 0 (got " +
                                std::to_string(value) + ")");
  }
}

}  // namespace prime::common
