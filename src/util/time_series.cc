#include "util/time_series.h"

#include <stdexcept>

namespace rootstress::util {

BinnedSeries::BinnedSeries(std::int64_t start_ms, std::int64_t bin_ms,
                           std::size_t bins)
    : start_ms_(start_ms), bin_ms_(bin_ms) {
  if (bin_ms <= 0 || bins == 0) {
    throw std::invalid_argument("BinnedSeries needs positive bin width/count");
  }
  counts_.assign(bins, 0);
  sums_.assign(bins, 0.0);
}

std::size_t BinnedSeries::bin_of(std::int64_t t_ms) const noexcept {
  if (t_ms < start_ms_) return npos;
  const auto idx = static_cast<std::size_t>((t_ms - start_ms_) / bin_ms_);
  return idx < counts_.size() ? idx : npos;
}

std::uint64_t BinnedSeries::count(std::size_t i) const noexcept {
  return i < counts_.size() ? counts_[i] : 0;
}

double BinnedSeries::sum(std::size_t i) const noexcept {
  return i < sums_.size() ? sums_[i] : 0.0;
}

double BinnedSeries::mean(std::size_t i) const noexcept {
  if (i >= counts_.size() || counts_[i] == 0) return 0.0;
  return sums_[i] / static_cast<double>(counts_[i]);
}

}  // namespace rootstress::util
