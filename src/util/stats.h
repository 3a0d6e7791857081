// Small statistics helpers used throughout the analysis pipeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rootstress::util {

/// Arithmetic mean; 0 for an empty input.
double mean(std::span<const double> xs) noexcept;

/// Sample standard deviation (Bessel-corrected, divides by N-1); 0 for
/// fewer than two samples. Use this for replicate-seed spreads and any
/// other estimate drawn from a sample of a larger population.
double stddev(std::span<const double> xs) noexcept;

/// Median (average of the two central elements for even sizes); 0 if empty.
/// The input is copied; the caller's data is not reordered.
double median(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100]; 0 if empty.
double percentile(std::span<const double> xs, double p);

/// percentile() over values it may reorder, so nothing is copied. It
/// picks the same order statistics and interpolates them the same way,
/// so the result is bit-identical to percentile() over the values as
/// doubles. RTT records carry 16-bit milliseconds; selecting on those
/// moves a quarter of the bytes.
double percentile_in_place(std::span<std::uint16_t> xs, double p);

/// The median of each group of `values`, where values[i] belongs to
/// group keys[i] (every key < `groups`); 0 for an empty group. One
/// counting pass sizes each group's slice of a single flat buffer, a
/// scatter fills it, and each slice is selected in place.
std::vector<double> group_medians(std::span<const std::size_t> keys,
                                  std::span<const std::uint16_t> values,
                                  std::size_t groups);

/// Minimum / maximum; 0 for an empty input.
double min_of(std::span<const double> xs) noexcept;
double max_of(std::span<const double> xs) noexcept;

/// Pearson correlation coefficient of two equally sized series.
/// Returns 0 when either series has zero variance or sizes mismatch.
double pearson(std::span<const double> xs, std::span<const double> ys) noexcept;

/// Ordinary least squares fit y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;  ///< coefficient of determination of the fit
};

/// Fits a line through (xs[i], ys[i]). Returns a default fit if sizes
/// mismatch or there are fewer than two points.
LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) noexcept;

}  // namespace rootstress::util
