// Full replay of the Nov 30 / Dec 1, 2015 events with a per-letter
// incident report — the library's headline use case in one program.
//
// Usage:
//   ./build/examples/root_ddos_replay [vp_count] [attack_mqps] [report.md]
//       [telemetry.json]
// Defaults: 800 VPs, 5 Mq/s per attacked letter. Expect a few seconds at
// the defaults and about 10 s at the paper's 9363 VPs. vp_count must be a
// whole integer >= 1 and attack_mqps a number in [0, 1000]; anything else
// prints the usage line and exits 2.
// When a third argument is given, a full Markdown incident report is
// written there; a fourth argument receives the run's telemetry snapshot
// as JSON. After the phase table the program prints the run's wall time
// (construction, simulation and evaluation) and the process's peak
// resident set. Set ROOTSTRESS_TRACE=trace.jsonl to also dump the
// structured event trace (site withdrawals, BGP session failures,
// catchment flips, ...).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "rootstress.h"
#include "util/env.h"

using namespace rootstress;

int main(int argc, char** argv) {
  const auto vps =
      argc > 1 ? util::parse_integer(argv[1], 1,
                                     std::numeric_limits<int>::max())
               : std::optional<std::int64_t>(800);
  const auto mqps = argc > 2 ? util::parse_number(argv[2], 0.0, 1000.0)
                             : std::optional<double>(5.0);
  if (!vps || !mqps) {
    std::fprintf(stderr,
                 "usage: root_ddos_replay [vp_count] [attack_mqps] "
                 "[report.md] [telemetry.json]\n");
    return 2;
  }
  const int vp_count = static_cast<int>(*vps);
  const double attack_mqps = *mqps;

  std::printf("Replaying the 2015 Root DNS events: %d VPs, %.1f Mq/s per "
              "attacked letter, 48 simulated hours...\n",
              vp_count, attack_mqps);
  const auto begin = std::chrono::steady_clock::now();
  const core::EvaluationReport report =
      rootstress::run(sim::ScenarioBuilder::november_2015()
                          .vp_count(vp_count)
                          .attack_qps(attack_mqps * 1e6));
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
  const auto& result = report.result;

  std::printf("\ncleaning: kept %d/%d VPs (%d old firmware, %d hijacked); "
              "%zu records, %zu route changes\n\n",
              result.cleaning.kept_vps, result.cleaning.total_vps,
              result.cleaning.dropped_old_firmware,
              result.cleaning.dropped_hijacked, result.records.size(),
              result.route_changes.size());

  std::puts("letter  sites(rep/obs)  typVPs  minVPs  loss   RTT q->e (ms)   flips");
  std::puts("----------------------------------------------------------------------");
  for (const auto& s : report.letters) {
    std::printf("  %c     %4d / %-4d    %5d  %5d   %3.0f%%   %5.0f -> %-5.0f  %5d\n",
                s.letter, s.reported_sites, s.observed_sites, s.baseline_vps,
                s.min_vps, 100.0 * s.worst_loss, s.median_rtt_quiet_ms,
                s.median_rtt_event_ms, s.site_flips);
  }

  const auto evidence = analysis::letter_flip_evidence(result, 'L');
  std::printf("\nletter flips: L-Root served %.2fx its quiet rate during "
              "event 2 (paper: 1.66x)\n",
              evidence.event2_ratio);

  const auto nl = analysis::nl_query_rates(result);
  for (const auto& site : nl) {
    double worst = 1e9;
    for (const double v : site.normalized_qps) worst = std::min(worst, v);
    std::printf("collateral: .nl %s dropped to %.0f%% of its median rate\n",
                site.anonymized_label.c_str(), 100.0 * worst);
  }
  if (argc > 3) {
    std::ofstream out(argv[3]);
    core::ReportOptions options;
    options.title = "Root DNS event replay (Nov 30 / Dec 1, 2015)";
    core::write_markdown_report(report, options, out);
    std::printf("\nwrote Markdown incident report to %s\n", argv[3]);
  }

  // Telemetry: where the wall-clock went, and what the run recorded.
  const obs::Snapshot& telemetry = result.telemetry;
  if (!telemetry.empty()) {
    std::printf("\ntelemetry: %zu metrics; trace %llu events emitted, "
                "%llu dropped (cap %zu)\n",
                telemetry.metrics.size(),
                static_cast<unsigned long long>(telemetry.trace.emitted),
                static_cast<unsigned long long>(telemetry.trace.dropped),
                telemetry.trace.capacity);
    std::puts("phase profile (total ms / calls):");
    for (const auto& phase : telemetry.phases) {
      std::printf("  %*s%-18s %9.1f ms  x%llu\n", phase.depth * 2, "",
                  phase.name.c_str(),
                  static_cast<double>(phase.total_ns) / 1e6,
                  static_cast<unsigned long long>(phase.calls));
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);  // ru_maxrss is in KiB on Linux
  std::printf("run: %.2f s wall (construction, simulation, evaluation); "
              "peak RSS %.0f MB\n",
              wall_s, static_cast<double>(usage.ru_maxrss) / 1024.0);
  if (!telemetry.empty() && argc > 4) {
    std::ofstream out(argv[4]);
    core::write_telemetry(telemetry, out);
    std::printf("wrote telemetry JSON to %s\n", argv[4]);
  }
  std::puts("\nCompare against the paper via build/bench/paper_report "
            "(all figures, or name some: paper_report fig3 table3).");
  return 0;
}
