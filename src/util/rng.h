// Deterministic pseudo-random number generation for simulations.
//
// All stochastic choices in RootStress flow through Rng so that a scenario
// seed fully determines every output. The generator is xoshiro256**, seeded
// via splitmix64; both are public-domain algorithms by Blackman & Vigna.
// The seeding, the core step and the two draws every probe makes
// (uniform, chance) are defined here, inline, so hot loops that build a
// generator per probe pay no out-of-line calls for them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace rootstress::util {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of a value (one splitmix64 round).
inline std::uint64_t mix64(std::uint64_t value) noexcept {
  return splitmix64(value);
}

/// xoshiro256** generator with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator so it can be used with <random>
/// distributions, but the member helpers are preferred: they are stable
/// across standard-library implementations, which <random> distributions
/// are not.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose entire sequence is determined by `seed`.
  explicit Rng(std::uint64_t seed = 0) noexcept {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  /// Derives an independent stream for a named subsystem. Streams derived
  /// with different tags are statistically independent.
  Rng fork(std::uint64_t tag) const noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }
  result_type operator()() noexcept { return next(); }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n) noexcept;
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;
  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }
  /// Standard normal via Box-Muller.
  double normal(double mean = 0.0, double stddev = 1.0) noexcept;
  /// Pareto-distributed value with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha) noexcept;
  /// Poisson-distributed count with the given mean (>= 0).
  std::uint64_t poisson(double mean) noexcept;

  /// Picks an index in [0, weights.size()) with probability proportional to
  /// weights[i]. Requires a nonempty span with a positive total weight.
  std::size_t weighted(std::span<const double> weights) noexcept;

  /// Shuffles `items` in place (Fisher-Yates).
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace rootstress::util
