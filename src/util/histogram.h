// Fixed-width binned histogram.
//
// RSSAC-002 reports DNS message sizes in 16-byte bins; the paper identifies
// attack traffic by unusually popular bins (§3.1). This histogram is the
// collector-side structure those reports are built from.
#pragma once

#include <cstdint>
#include <vector>

namespace rootstress::util {

/// Histogram over [0, +inf) with fixed-width bins; values are clamped into
/// the last bin once `bin_count` bins are exceeded.
class FixedBinHistogram {
 public:
  /// `bin_width` > 0; `bin_count` > 0.
  FixedBinHistogram(double bin_width, std::size_t bin_count);

  /// Adds `count` observations of `value`.
  void add(double value, std::uint64_t count = 1) noexcept;

  /// Total observations.
  std::uint64_t total() const noexcept { return total_; }

  /// Count in bin `i` (bins cover [i*width, (i+1)*width)).
  std::uint64_t bin(std::size_t i) const noexcept;

  std::size_t bin_count() const noexcept { return counts_.size(); }
  double bin_width() const noexcept { return bin_width_; }

  /// Lower edge of bin `i`.
  double bin_lo(std::size_t i) const noexcept { return bin_width_ * static_cast<double>(i); }

  /// Index of the most populated bin after subtracting `baseline`
  /// bin-by-bin (saturating at zero). This is the paper's method of
  /// locating attack-query sizes: the bin that grew the most.
  std::size_t mode_bin_above(const FixedBinHistogram& baseline) const noexcept;

  /// Adds all counts from `other` (must have identical geometry; otherwise
  /// a no-op returning false).
  bool merge(const FixedBinHistogram& other) noexcept;

  void clear() noexcept;

 private:
  double bin_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace rootstress::util
