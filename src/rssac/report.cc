#include "rssac/report.h"

namespace rootstress::rssac {

double day_queries(const DailyAccumulator& accumulator, int letter_index,
                   int day) {
  if (!accumulator.has(letter_index, day)) return 0.0;
  return accumulator.metrics(letter_index, day).queries;
}

}  // namespace rootstress::rssac
