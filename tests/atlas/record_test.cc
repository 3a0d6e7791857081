#include "atlas/record.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace rootstress::atlas {
namespace {

ProbeRecord make(int letter, std::uint32_t serial) {
  ProbeRecord r;
  r.letter_index = static_cast<std::uint8_t>(letter);
  r.vp = serial;  // unique, so order is checkable
  r.t_s = serial;
  return r;
}

std::vector<std::uint32_t> serials_of(const RecordSet::LetterView& view) {
  std::vector<std::uint32_t> serials;
  for (const ProbeRecord& r : view) serials.push_back(r.vp);
  return serials;
}

/// Every per-letter view must equal a full-scan filter of the store, in
/// store order; letters that never occur read empty; the maintained run
/// index equals one recomputed from the records.
void expect_views_match_scan(const RecordSet& records, int letters) {
  for (int letter = 0; letter < letters; ++letter) {
    std::vector<std::uint32_t> scanned;
    for (const ProbeRecord& r : records) {
      if (r.letter_index == letter) scanned.push_back(r.vp);
    }
    EXPECT_EQ(serials_of(records.letter(letter)), scanned)
        << "letter " << letter;
  }
  EXPECT_TRUE(serials_of(records.letter(-1)).empty());
  EXPECT_TRUE(serials_of(records.letter(255)).empty());
  EXPECT_NO_THROW(records.verify_index());
}

TEST(RecordSet, EmptyStoreHasEmptyViews) {
  const RecordSet records;
  EXPECT_TRUE(records.empty());
  expect_views_match_scan(records, 3);
}

TEST(RecordSet, RetainMergesRunsAcrossDroppedRecords) {
  RecordSet records;
  records.push_back(make(0, 0));
  records.push_back(make(0, 1));
  records.append(std::vector<ProbeRecord>{make(1, 2), make(0, 3)});
  EXPECT_EQ(serials_of(records.letter(0)),
            (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(serials_of(records.letter(1)), (std::vector<std::uint32_t>{2}));

  // Dropping the letter-1 record leaves one run of letter 0, which
  // verify_index (maximal runs, recomputed) confirms.
  records.retain([](const ProbeRecord& r) { return r.letter_index != 1; });
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].vp, 3u);
  EXPECT_TRUE(serials_of(records.letter(1)).empty());
  expect_views_match_scan(records, 2);
}

// Property: stores built from random letter sequences through every
// mutator keep an index that matches a full scan.
TEST(RecordSet, RandomStoresMatchFullScanThroughEveryMutator) {
  util::Rng rng(20151130);
  for (int trial = 0; trial < 200; ++trial) {
    const int letters = 1 + static_cast<int>(rng.below(14));
    RecordSet records;
    std::uint32_t serial = 0;
    const std::size_t chunks = rng.below(30);
    for (std::size_t c = 0; c < chunks; ++c) {
      // Chunks are mostly one letter, like probe shards, sometimes mixed.
      const bool mixed = rng.chance(0.3);
      const int base = static_cast<int>(rng.below(letters));
      std::vector<ProbeRecord> chunk(rng.below(12));
      for (auto& r : chunk) {
        const int letter =
            mixed ? static_cast<int>(rng.below(letters)) : base;
        r = make(letter, serial++);
      }
      if (rng.chance(0.5)) {
        records.append(chunk);
      } else {
        for (const auto& r : chunk) records.push_back(r);
      }
    }
    expect_views_match_scan(records, letters);

    const std::uint64_t salt = rng.next();
    records.retain([&](const ProbeRecord& r) {
      return (r.vp * 0x9e3779b97f4a7c15ull ^ salt) % 3 != 0;
    });
    expect_views_match_scan(records, letters);

    records.retain([](const ProbeRecord&) { return false; });
    EXPECT_TRUE(records.empty());
    expect_views_match_scan(records, letters);
  }
}

}  // namespace
}  // namespace rootstress::atlas
