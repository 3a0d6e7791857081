// Time-binned series.
//
// The paper's analyses all run on binned time series: Atlas observations in
// 10-minute bins (§2.4.1), BGP updates in 10-minute bins (Fig 9), .nl query
// rates in 10-minute bins (Fig 15). BinnedSeries is the shared container.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace rootstress::util {

/// A series of fixed-width time bins starting at `start` (milliseconds).
/// Observations are accumulated into bins; per-bin reductions (count, sum,
/// mean) are computed on demand.
class BinnedSeries {
 public:
  /// Creates `bins` bins of `bin_ms` milliseconds each starting at
  /// `start_ms`.
  BinnedSeries(std::int64_t start_ms, std::int64_t bin_ms, std::size_t bins);

  /// Adds one observation of `value` at absolute time `t_ms`. Out-of-range
  /// times are ignored.
  void add(std::int64_t t_ms, double value) noexcept {
    add_to_bin(bin_of(t_ms), value);
  }

  /// add() with the bin already resolved by bin_of() (npos is ignored):
  /// series on one grid that take values for the same instant resolve
  /// its bin once.
  void add_to_bin(std::size_t i, double value) noexcept {
    if (i >= counts_.size()) return;
    ++counts_[i];
    sums_[i] += value;
  }

  /// Fills empty bin `i` (npos is ignored) with `count` observations that
  /// sum to `sum`. Equal to `count` add_to_bin() calls when `sum` was
  /// accumulated from 0.0 in the same order: a writer that sums a bin on
  /// its own side writes it once. Debug builds assert the bin was empty.
  void fill_bin(std::size_t i, std::uint64_t count, double sum) noexcept {
    if (i >= counts_.size()) return;
    assert(counts_[i] == 0 && sums_[i] == 0.0);
    counts_[i] = count;
    sums_[i] = sum;
  }

  /// Increments the count of the bin containing `t_ms` without storing a
  /// value (for pure event counting).
  void count_event(std::int64_t t_ms) noexcept { add(t_ms, 0.0); }

  std::size_t bin_count() const noexcept { return counts_.size(); }
  std::int64_t bin_ms() const noexcept { return bin_ms_; }
  std::int64_t start_ms() const noexcept { return start_ms_; }

  /// Absolute start time of bin `i` in milliseconds.
  std::int64_t bin_start(std::size_t i) const noexcept {
    return start_ms_ + bin_ms_ * static_cast<std::int64_t>(i);
  }

  /// Bin index for a time, or npos if out of range.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t bin_of(std::int64_t t_ms) const noexcept;

  /// Number of observations in bin `i`.
  std::uint64_t count(std::size_t i) const noexcept;
  /// Sum of observed values in bin `i`.
  double sum(std::size_t i) const noexcept;
  /// Mean of observed values in bin `i`; 0 if empty.
  double mean(std::size_t i) const noexcept;

 private:
  std::int64_t start_ms_;
  std::int64_t bin_ms_;
  std::vector<std::uint64_t> counts_;
  std::vector<double> sums_;
};

}  // namespace rootstress::util
