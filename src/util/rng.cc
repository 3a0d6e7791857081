#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace rootstress::util {

Rng Rng::fork(std::uint64_t tag) const noexcept {
  // Combine current state with the tag; the fork does not advance *this.
  std::uint64_t sm = state_[0] ^ rotl(state_[2], 17) ^ mix64(tag);
  Rng child(0);
  for (auto& s : child.state_) s = splitmix64(sm);
  return child;
}

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  // Lemire's multiply-shift rejection method: unbiased and fast.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto low = static_cast<std::uint64_t>(m);
  if (low < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * n;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::normal(double mean, double stddev) noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 == 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::pareto(double xm, double alpha) noexcept {
  double u;
  do {
    u = uniform();
  } while (u == 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's method for small means.
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation for large means; adequate for traffic synthesis.
  const double v = normal(mean, std::sqrt(mean));
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

std::size_t Rng::weighted(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;  // numeric fallback
}

}  // namespace rootstress::util
