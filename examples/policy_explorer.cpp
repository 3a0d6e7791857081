// Policy explorer: interactive-style sweep of the §2.2 withdraw-vs-absorb
// model plus the defense advisor applied to a concrete deployment
// snapshot.
//
// Usage:
//   ./build/examples/policy_explorer [s1 s2 S3]
// (defaults to the paper's s1 = s2 = 1, S3 = 10). Give all three or none;
// each capacity must be a number in [0, 1e6]. Anything else prints the
// usage line and exits 2.
#include <cstdio>
#include <optional>
#include <vector>

#include "rootstress.h"
#include "util/env.h"

using namespace rootstress;

int main(int argc, char** argv) {
  core::PolicyScenario base;
  if (argc != 1) {
    const auto s1 = argc == 4 ? util::parse_number(argv[1], 0.0, 1e6)
                              : std::nullopt;
    const auto s2 = s1 ? util::parse_number(argv[2], 0.0, 1e6) : std::nullopt;
    const auto s3 = s2 ? util::parse_number(argv[3], 0.0, 1e6) : std::nullopt;
    if (!s3) {
      std::fprintf(stderr, "usage: policy_explorer [s1 s2 S3]\n");
      return 2;
    }
    base.s1 = *s1;
    base.s2 = *s2;
    base.S3 = *s3;
  }
  std::printf("capacities: s1=%.2f s2=%.2f S3=%.2f\n", base.s1, base.s2,
              base.S3);
  std::puts("\n-- sweep A0=A1 through the five regimes --");
  std::puts("   A      case  best strategy           H  clients served");
  for (double a = 0.25; a < 2.2 * base.S3; a *= 1.5) {
    core::PolicyScenario sc = base;
    sc.A0 = a;
    sc.A1 = a;
    const auto best = core::best_strategy(sc);
    const auto out = core::evaluate(sc, best);
    std::printf("  %6.2f   %d   %-22s %d  [%c %c %c %c]\n", a,
                core::classify_case(sc), core::to_string(best).c_str(),
                out.happiness, out.client_served[0] ? 'y' : '-',
                out.client_served[1] ? 'y' : '-',
                out.client_served[2] ? 'y' : '-',
                out.client_served[3] ? 'y' : '-');
  }

  std::puts("\n-- defense advisor on a 5-site deployment snapshot --");
  // Capacities and observed offered load (attack + legit), in kq/s.
  const std::vector<double> capacity{1500, 260, 420, 500, 320};
  const std::vector<double> offered{1800, 900, 700, 120, 1100};
  const char* names[] = {"AMS", "LHR", "FRA", "MIA", "NRT"};
  std::vector<anycast::SiteAdvice> advice;
  std::vector<std::size_t> order;
  anycast::advise(capacity, offered, advice, order);
  for (const auto& a : advice) {
    std::printf("  %-4s offered %5.0f / cap %5.0f (%.1fx): %-17s %.*s\n",
                names[a.site_index], offered[a.site_index],
                capacity[a.site_index], a.overload,
                anycast::to_string(a.action).c_str(),
                static_cast<int>(a.rationale.size()), a.rationale.data());
  }
  std::puts(
      "\nNote: the paper stresses operators cannot compute this live —\n"
      "attack volume and source placement are unknown during an event\n"
      "(§2.2). The advisor shows what omniscient routing would do.");
  return 0;
}
