// RSSAC-002 publication: which letters publish daily reports.
//
// Only letters that had committed to RSSAC-002 by the event (A, H, J, K,
// L) publish; the rest of the accumulator stays internal — exactly the
// visibility the paper had to work with in §3.1.
#pragma once

#include "rssac/metrics.h"

namespace rootstress::rssac {

/// Which letters publish, and their letter indices.
struct Publisher {
  char letter = '?';
  int letter_index = -1;
};

/// Metered queries for one (letter, day); 0 when the day is absent.
double day_queries(const DailyAccumulator& accumulator, int letter_index,
                   int day);

}  // namespace rootstress::rssac
