#include "util/histogram.h"

#include <algorithm>
#include <stdexcept>

namespace rootstress::util {

FixedBinHistogram::FixedBinHistogram(double bin_width, std::size_t bin_count)
    : bin_width_(bin_width) {
  if (bin_width <= 0.0 || bin_count == 0) {
    throw std::invalid_argument("histogram needs positive width and count");
  }
  counts_.assign(bin_count, 0);
}

void FixedBinHistogram::add(double value, std::uint64_t count) noexcept {
  if (value < 0.0) value = 0.0;
  auto idx = static_cast<std::size_t>(value / bin_width_);
  idx = std::min(idx, counts_.size() - 1);
  counts_[idx] += count;
  total_ += count;
}

std::uint64_t FixedBinHistogram::bin(std::size_t i) const noexcept {
  return i < counts_.size() ? counts_[i] : 0;
}

std::size_t FixedBinHistogram::mode_bin_above(
    const FixedBinHistogram& baseline) const noexcept {
  std::size_t best = 0;
  std::uint64_t best_delta = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t base =
        i < baseline.counts_.size() ? baseline.counts_[i] : 0;
    const std::uint64_t delta = counts_[i] > base ? counts_[i] - base : 0;
    if (delta > best_delta) {
      best_delta = delta;
      best = i;
    }
  }
  return best;
}

bool FixedBinHistogram::merge(const FixedBinHistogram& other) noexcept {
  if (other.bin_width_ != bin_width_ || other.counts_.size() != counts_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  return true;
}

void FixedBinHistogram::clear() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

}  // namespace rootstress::util
