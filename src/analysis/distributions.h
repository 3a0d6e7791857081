// Empirical distributions: CDFs and quantile summaries.
//
// Used to compare RTT populations before/during events (the style of
// analysis the paper's related work applies to root latency) and by the
// ablation benches to summarize sweeps.
#pragma once

#include <span>
#include <vector>

namespace rootstress::analysis {

/// An empirical CDF over a sample.
class EmpiricalCdf {
 public:
  /// Copies and sorts the sample. Empty samples are allowed (every query
  /// returns 0).
  explicit EmpiricalCdf(std::span<const double> sample);

  /// P(X <= x) in [0, 1].
  double at(double x) const noexcept;

  /// The q-quantile (q in [0,1], linear interpolation).
  double quantile(double q) const noexcept;

  std::size_t size() const noexcept { return sorted_.size(); }
  double min() const noexcept { return sorted_.empty() ? 0.0 : sorted_.front(); }
  double max() const noexcept { return sorted_.empty() ? 0.0 : sorted_.back(); }

 private:
  std::vector<double> sorted_;
};

/// Kolmogorov-Smirnov distance between two samples — a single number for
/// "did this distribution shift?" (0 = identical, 1 = disjoint).
double ks_distance(const EmpiricalCdf& a, const EmpiricalCdf& b) noexcept;

}  // namespace rootstress::analysis
