#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace rootstress::util {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double stddev_population(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double median(std::span<const double> xs) {
  return percentile(xs, 50.0);
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  // Select instead of sorting: the lo-th order statistic, then the
  // (lo+1)-th as the smallest value past it. They are the values a full
  // sort would put at lo and lo+1, so the result is bit-identical.
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), nth, v.end());
  const double upper = lo + 1 < v.size() ? *std::min_element(nth + 1, v.end())
                                         : *nth;
  return *nth * (1.0 - frac) + upper * frac;
}

double min_of(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double pearson(std::span<const double> xs, std::span<const double> ys) noexcept {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) noexcept {
  LinearFit fit;
  if (xs.size() != ys.size() || xs.size() < 2) return fit;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
  }
  if (sxx == 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  const double r = pearson(xs, ys);
  fit.r_squared = r * r;
  return fit;
}

}  // namespace rootstress::util
