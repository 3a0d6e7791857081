// Raw probe measurement records.
//
// One record per (VP, letter, probe). Packed to 16 bytes: full-scale runs
// produce tens of millions of records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/clock.h"

namespace rootstress::atlas {

/// What a probe observed.
enum class ProbeOutcome : std::uint8_t {
  kSite = 0,     ///< got a reply mapping to a known site
  kError = 1,    ///< got a reply with an error RCODE / unparseable id
  kTimeout = 2,  ///< no reply within the Atlas timeout
};

/// One measurement. `site_id` is the deployment-global site id (-1 when
/// not applicable); `server` the 1-based answering server (0 unknown);
/// `rtt_ms` is meaningful only for kSite/kError.
struct ProbeRecord {
  std::uint32_t vp = 0;
  std::uint32_t t_s = 0;      ///< seconds since scenario epoch
  std::int16_t site_id = -1;
  std::uint16_t rtt_ms = 0;   ///< saturating at 65535
  std::uint8_t letter_index = 0;
  ProbeOutcome outcome = ProbeOutcome::kTimeout;
  std::uint8_t server = 0;
  std::uint8_t rcode = 0;

  net::SimTime time() const noexcept {
    return net::SimTime(static_cast<std::int64_t>(t_s) * 1000);
  }
};
static_assert(sizeof(ProbeRecord) == 16);

/// The record store for one run. Records stay in the order they were
/// added (the engine's service-major-per-step order, which the record
/// digests pin). Alongside them the store keeps, for each letter, the
/// maximal runs of consecutive records of that letter, so an analysis of
/// one letter reads only that letter's records. The only mutators
/// (push_back, append, retain) keep the index current, and elements are
/// never handed out mutably, so the index cannot go stale.
class RecordSet {
  /// Records [begin, end) of the store, all of one letter.
  struct Run {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    bool operator==(const Run&) const = default;
  };

 public:
  /// One letter's records in store order, walked run by run.
  class LetterView {
   public:
    class iterator {
     public:
      using value_type = ProbeRecord;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      const ProbeRecord& operator*() const noexcept { return *at_; }
      const ProbeRecord* operator->() const noexcept { return at_; }
      iterator& operator++() noexcept {
        // Runs are never empty, so the next run has a first record.
        if (++at_ == stop_ && ++run_ != last_) {
          at_ = base_ + run_->begin;
          stop_ = base_ + run_->end;
        }
        return *this;
      }
      bool operator==(std::default_sentinel_t) const noexcept {
        return run_ == last_;
      }

     private:
      friend class LetterView;
      const ProbeRecord* base_ = nullptr;
      const Run* run_ = nullptr;
      const Run* last_ = nullptr;
      const ProbeRecord* at_ = nullptr;
      const ProbeRecord* stop_ = nullptr;
    };

    iterator begin() const noexcept;
    std::default_sentinel_t end() const noexcept { return {}; }

   private:
    friend class RecordSet;
    LetterView(const ProbeRecord* base, std::span<const Run> runs)
        : base_(base), runs_(runs) {}
    const ProbeRecord* base_ = nullptr;
    std::span<const Run> runs_;
  };

  using const_iterator = std::vector<ProbeRecord>::const_iterator;

  void push_back(const ProbeRecord& record) {
    check_room(1);
    records_.push_back(record);
    note(records_.size() - 1);
  }

  /// Appends `records` in order (the engine merges its probe shards so).
  void append(std::span<const ProbeRecord> records);

  /// Keeps the records `keep` accepts, in order, compacting in place; the
  /// run index is rebuilt in the same pass (dropping the records between
  /// two runs of one letter merges them).
  template <typename Keep>
  void retain(Keep keep) {
    for (auto& runs : runs_) runs.clear();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (!keep(records_[i])) continue;
      records_[kept] = records_[i];
      note(kept++);
    }
    records_.resize(kept);
  }

  void reserve(std::size_t n) { records_.reserve(n); }

  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }
  const ProbeRecord* data() const noexcept { return records_.data(); }
  const ProbeRecord& operator[](std::size_t i) const noexcept {
    return records_[i];
  }
  const_iterator begin() const noexcept { return records_.begin(); }
  const_iterator end() const noexcept { return records_.end(); }

  /// The records of `letter_index`; empty when the letter is absent or
  /// out of range (negative, or past every letter stored).
  LetterView letter(int letter_index) const noexcept;

  /// Rebuilds the run index from the records alone and throws
  /// std::logic_error when it differs from the maintained one.
  void verify_index() const;

 private:
  /// Indexes record `at`, given records [0, at) are indexed.
  void note(std::size_t at) {
    const std::uint8_t letter = records_[at].letter_index;
    if (at > 0 && records_[at - 1].letter_index == letter) {
      ++runs_[letter].back().end;
      return;
    }
    if (letter >= runs_.size()) runs_.resize(std::size_t{letter} + 1);
    runs_[letter].push_back(Run{static_cast<std::uint32_t>(at),
                                static_cast<std::uint32_t>(at + 1)});
  }

  /// Runs hold 32-bit positions: refuse to grow past them.
  void check_room(std::size_t more) const {
    if (more > UINT32_MAX - records_.size()) {
      throw std::length_error("RecordSet holds at most 2^32-1 records");
    }
  }

  std::vector<ProbeRecord> records_;
  std::vector<std::vector<Run>> runs_;  ///< by letter_index
};

}  // namespace rootstress::atlas
