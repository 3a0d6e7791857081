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

double median(std::span<const double> xs) {
  return percentile(xs, 50.0);
}

namespace {

/// The one copy of the percentile rule: rank p/100 * (n-1), the order
/// statistics at floor(rank) and the next one up, linearly interpolated.
template <typename T>
double select_percentile(std::span<T> v, double p) {
  if (v.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  // Select instead of sorting: the lo-th order statistic, then the
  // (lo+1)-th as the smallest value past it. They are the values a full
  // sort would put at lo and lo+1, so the result is bit-identical.
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), nth, v.end());
  const double at = static_cast<double>(*nth);
  const double upper =
      lo + 1 < v.size()
          ? static_cast<double>(*std::min_element(nth + 1, v.end()))
          : at;
  return at * (1.0 - frac) + upper * frac;
}

}  // namespace

double percentile(std::span<const double> xs, double p) {
  std::vector<double> v(xs.begin(), xs.end());
  return select_percentile<double>(v, p);
}

double percentile_in_place(std::span<std::uint16_t> xs, double p) {
  return select_percentile(xs, p);
}

std::vector<double> group_medians(std::span<const std::size_t> keys,
                                  std::span<const std::uint16_t> values,
                                  std::size_t groups) {
  // offset[g] .. offset[g + 1] is group g's slice of `flat`.
  std::vector<std::size_t> offset(groups + 1, 0);
  for (const std::size_t key : keys) ++offset[key + 1];
  for (std::size_t g = 0; g < groups; ++g) offset[g + 1] += offset[g];
  std::vector<std::uint16_t> flat(values.size());
  std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    flat[fill[keys[i]]++] = values[i];
  }
  std::vector<double> medians(groups, 0.0);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::span<std::uint16_t> group(flat.data() + offset[g],
                                         offset[g + 1] - offset[g]);
    medians[g] = select_percentile(group, 50.0);
  }
  return medians;
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
