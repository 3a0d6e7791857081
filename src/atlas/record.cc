#include "atlas/record.h"

namespace rootstress::atlas {

RecordSet::LetterView::iterator RecordSet::LetterView::begin() const noexcept {
  iterator it;
  it.base_ = base_;
  it.run_ = runs_.data();
  it.last_ = runs_.data() + runs_.size();
  if (!runs_.empty()) {
    it.at_ = base_ + runs_.front().begin;
    it.stop_ = base_ + runs_.front().end;
  }
  return it;
}

void RecordSet::append(std::span<const ProbeRecord> records) {
  check_room(records.size());
  const std::size_t first = records_.size();
  records_.insert(records_.end(), records.begin(), records.end());
  for (std::size_t i = first; i < records_.size(); ++i) note(i);
}

RecordSet::LetterView RecordSet::letter(int letter_index) const noexcept {
  if (letter_index < 0 ||
      static_cast<std::size_t>(letter_index) >= runs_.size()) {
    return LetterView(records_.data(), {});
  }
  return LetterView(records_.data(),
                    runs_[static_cast<std::size_t>(letter_index)]);
}

void RecordSet::verify_index() const {
  // Recomputed from the records alone, one maximal run at a time. Letters
  // whose runs were all dropped keep an empty list; it indexes nothing.
  std::vector<std::vector<Run>> expected(runs_.size());
  for (std::size_t i = 0; i < records_.size();) {
    const std::uint8_t letter = records_[i].letter_index;
    std::size_t j = i + 1;
    while (j < records_.size() && records_[j].letter_index == letter) ++j;
    if (letter >= expected.size()) {
      throw std::logic_error("RecordSet run index misses a letter");
    }
    expected[letter].push_back(
        Run{static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
    i = j;
  }
  if (expected != runs_) {
    throw std::logic_error("RecordSet run index disagrees with its records");
  }
}

}  // namespace rootstress::atlas
