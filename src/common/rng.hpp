/// \file rng.hpp
/// \brief Deterministic pseudo-random number generation for reproducible
///        simulation runs.
///
/// Every stochastic component of the simulator (workload generators, sensor
/// noise, exploration policies) draws from an explicitly-seeded `Rng` so that
/// each experiment in EXPERIMENTS.md is bit-reproducible. The generator is
/// xoshiro256** (Blackman & Vigna) seeded through SplitMix64, which is the
/// recommended seeding procedure and avoids correlated low-entropy seeds.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace prime::common {

class StateWriter;
class StateReader;

/// \brief SplitMix64 stepping function; used to expand a 64-bit seed into the
///        256-bit xoshiro state. Also usable as a cheap standalone generator.
/// \param state In/out 64-bit state, advanced by one step.
/// \return Next 64-bit output.
[[nodiscard]] inline std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// \brief Derive the seed of stream \p stream_index from \p base_seed in
///        O(1), independent of any other stream's derivation.
///
/// SplitMix64's k-th output is mix(base + (k+1)*gamma): the state walk is a
/// plain gamma stride, so jumping straight to index k and mixing once yields
/// exactly the output a sequential walk would — derive_seed(base, k) is the
/// (k+1)-th splitmix64_next() output from state=base. The fleet layer seeds
/// each simulated device with its *population-wide* device index, so a
/// device's seed (and therefore its entire simulated trajectory) never
/// depends on how the population was partitioned into shards.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed,
                                        std::uint64_t stream_index) noexcept;

/// \brief Deterministic xoshiro256** generator with convenience samplers.
///
/// Not thread-safe; give each simulated component its own instance (use
/// `fork()` to derive decorrelated child streams).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// \brief Construct from a 64-bit seed (expanded via SplitMix64).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// \brief Smallest value produced (UniformRandomBitGenerator requirement).
  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  /// \brief Largest value produced (UniformRandomBitGenerator requirement).
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }

  /// \brief Next raw 64-bit output.
  [[nodiscard]] std::uint64_t next_u64() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }
  /// \brief UniformRandomBitGenerator call operator.
  [[nodiscard]] result_type operator()() noexcept { return next_u64(); }

  /// \brief Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    // 53 top bits -> double in [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  /// \brief Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }
  /// \brief Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo,
                                         std::int64_t hi) noexcept;
  /// \brief Standard normal deviate (Box–Muller, cached pair).
  [[nodiscard]] double normal() noexcept {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    // Box-Muller with guards against log(0).
    double u1 = uniform();
    if (u1 < 1.0e-300) u1 = 1.0e-300;
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    cached_normal_ = radius * std::sin(theta);
    has_cached_normal_ = true;
    return radius * std::cos(theta);
  }
  /// \brief Normal deviate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }
  /// \brief Exponential deviate with the given rate (lambda > 0).
  [[nodiscard]] double exponential(double rate) noexcept;
  /// \brief Bernoulli trial returning true with probability \p p.
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }
  /// \brief Sample an index from an (unnormalised, non-negative) weight
  ///        vector. Returns weights.size()-1 on degenerate input.
  [[nodiscard]] std::size_t discrete(const std::vector<double>& weights) noexcept;

  /// \brief Derive a decorrelated child generator (splits the stream).
  [[nodiscard]] Rng fork() noexcept;

  /// \brief Serialise the full generator state (xoshiro words plus the
  ///        Box–Muller cache), so a restored generator continues the exact
  ///        output sequence — required for bit-identical checkpoint resume.
  void save_state(StateWriter& out) const;
  /// \brief Restore state written by save_state().
  void load_state(StateReader& in);

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace prime::common
