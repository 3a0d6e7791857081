#include "analysis/distributions.h"

#include <algorithm>
#include <cmath>

namespace rootstress::analysis {

EmpiricalCdf::EmpiricalCdf(std::span<const double> sample)
    : sorted_(sample.begin(), sample.end()) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double q) const noexcept {
  if (sorted_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double ks_distance(const EmpiricalCdf& a, const EmpiricalCdf& b) noexcept {
  if (a.size() == 0 || b.size() == 0) return 0.0;
  // Evaluate |Fa - Fb| at every observed point of both samples.
  double worst = 0.0;
  for (const auto* cdf : {&a, &b}) {
    const std::size_t n = cdf->size();
    for (std::size_t i = 0; i < n; ++i) {
      const double q = static_cast<double>(i) / static_cast<double>(n);
      const double x = cdf->quantile(q);
      worst = std::max(worst, std::fabs(a.at(x) - b.at(x)));
    }
  }
  return worst;
}

}  // namespace rootstress::analysis
