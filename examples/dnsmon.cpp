// DNSMON-style dashboard: per-letter uptime strips across the two event
// days, the operator's-eye view RIPE publishes at atlas.ripe.net/dnsmon
// (§2.4.1). Darker cells = fewer VPs getting answers.
//
// Usage: ./build/examples/dnsmon [vp_count]
// vp_count (default 600) must be a whole integer >= 1; anything else
// prints the usage line and exits 2.
#include <algorithm>
#include <cstdio>
#include <limits>

#include "rootstress.h"
#include "util/env.h"

using namespace rootstress;

int main(int argc, char** argv) {
  const auto vps =
      argc > 1 ? util::parse_integer(argv[1], 1,
                                     std::numeric_limits<int>::max())
               : std::optional<std::int64_t>(600);
  if (!vps) {
    std::fprintf(stderr, "usage: dnsmon [vp_count]\n");
    return 2;
  }
  const int vp_count = static_cast<int>(*vps);
  std::printf("DNSMON replay: %d VPs, 2015-11-30 .. 2015-12-02\n\n", vp_count);

  const auto report =
      rootstress::run(sim::ScenarioBuilder::november_2015().vp_count(vp_count));
  const auto letters = anycast::root_letter_table(0);

  std::puts("         |0h          6h          12h         18h         24h         30h         36h         42h         |");
  for (char letter = 'A'; letter <= 'M'; ++letter) {
    const int s = report.result.service_index(letter);
    if (s < 0) continue;
    const auto& cfg = anycast::find_letter(letters, letter);
    const double scale =
        cfg.probe_interval_s > 600.0 ? cfg.probe_interval_s / 600.0 : 1.0;
    const auto row = atlas::render_dnsmon_row(
        report.grids[static_cast<std::size_t>(s)], letter,
        /*bins_per_char=*/3, scale);
    std::printf("%c (%3d)  |%s|  uptime %3.0f%%\n", letter,
                cfg.reported_sites, row.strip.c_str(),
                100.0 * std::min(1.0, row.uptime));
  }
  std::puts("\nlegend: ' '=all VPs answered ... '#'=near-total loss");
  std::puts("events: 06:50-09:30 on day 1, 05:10-06:10 on day 2");
  return 0;
}
