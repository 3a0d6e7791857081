// Deterministic pseudo-random number generation for simulations.
//
// All stochastic choices in RootStress flow through Rng so that a scenario
// seed fully determines every output. The generator is xoshiro256**, seeded
// via splitmix64; both are public-domain algorithms by Blackman & Vigna.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace rootstress::util {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless 64-bit mix of a value (one splitmix64 round).
std::uint64_t mix64(std::uint64_t value) noexcept;

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
  explicit Rng(std::uint64_t seed = 0) noexcept;

  /// Derives an independent stream for a named subsystem. Streams derived
  /// with different tags are statistically independent.
  Rng fork(std::uint64_t tag) const noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept;
  result_type operator()() noexcept { return next(); }

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n) noexcept;
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;
  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept;
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
  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace rootstress::util
