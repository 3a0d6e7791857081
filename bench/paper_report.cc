// paper_report: every table, figure and ablation of the paper's §3 from
// one binary. The paper draws them all from one 48-hour measurement
// campaign, so figures that read the same scenario share one simulation:
// the driver walks a static table of scenarios, simulates a scenario only
// when one of its figures was asked for, prints those figures, and frees
// the report before the next scenario (peak memory stays at one
// scenario's worth).
//
//   paper_report [--csv] [figure...]    # no names = every figure
//
// Figures print an aligned text table by default (for eyeballing against
// the paper) or CSV with --csv / ROOTSTRESS_CSV=1. ROOTSTRESS_VPS
// overrides the population of every scenario that scales with it;
// EXPERIMENTS.md records the defaults each figure was validated at.
// Output follows the scenario table's order. The exit status is non-zero
// when Table 1 has a FAIL row or a figure name is unknown; a closing
// stderr line reports figures printed, engine runs and wall seconds.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/proximity.h"
#include "rootstress.h"

using namespace rootstress;

namespace {

using core::EvaluationReport;

int engine_runs = 0;
int table1_failures = 0;

EvaluationReport simulate(sim::ScenarioConfig config) {
  ++engine_runs;
  return core::evaluate_scenario(std::move(config));
}

/// The standard two-day event scenario restricted to `letters` (empty =
/// all) with `vps` vantage points (ROOTSTRESS_VPS overrides).
sim::ScenarioBuilder event_scenario(std::vector<char> letters, int vps) {
  return sim::ScenarioBuilder::november_2015()
      .vp_count(sim::vp_count_from_env(vps))
      .probe_letters(std::move(letters));
}

/// Analysis bins across the probe window.
std::size_t probe_bins(const sim::SimulationResult& result) {
  return static_cast<std::size_t>(
      (result.probe_window.end - result.probe_window.begin).ms /
      result.bin_width.ms);
}

/// "HH:MM+Dd" label for the start of bin `b`.
std::string bin_label(net::SimTime start, net::SimTime width, std::size_t b) {
  return net::SimTime(start.ms + width.ms * static_cast<std::int64_t>(b))
      .to_string();
}

/// A per-bin time series: a "time" column of bin labels, then
/// `cells(table, b)` fills bin b's row. Text mode prints one bin per
/// hour so tables stay readable; CSV prints every bin.
template <typename Cells>
void emit_series(std::vector<std::string> columns, net::SimTime start,
                 net::SimTime width, std::size_t bins,
                 const std::string& title, bool csv, Cells cells) {
  columns.insert(columns.begin(), "time");
  util::TextTable table(std::move(columns));
  const auto per_hour = static_cast<std::size_t>(3600000 / width.ms);
  const std::size_t stride = csv || per_hour == 0 ? 1 : per_hour;
  for (std::size_t b = 0; b < bins; b += stride) {
    table.begin_row();
    table.cell(bin_label(start, width, b));
    cells(table, b);
  }
  util::emit(table, title, csv, std::cout);
}

/// Renders a small integer series as a bar strip for text figures.
std::string spark(const std::vector<int>& values, double max_value) {
  static const char* kLevels = " .:-=+*#%@";
  std::string out;
  out.reserve(values.size());
  for (const int v : values) {
    const double f = max_value > 0 ? static_cast<double>(v) / max_value : 0.0;
    out += kLevels[std::min(9, static_cast<int>(f * 9.0 + 0.5))];
  }
  return out;
}

/// Halves a per-bin series' resolution (1 char per 20 minutes: 144 chars
/// across 48h) for spark strips.
std::vector<int> coarsen(const std::vector<int>& per_bin) {
  std::vector<int> coarse;
  for (std::size_t b = 0; b + 1 < per_bin.size(); b += 2) {
    coarse.push_back((per_bin[b] + per_bin[b + 1]) / 2);
  }
  return coarse;
}

std::string fmt(double v, int precision = 1) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

const atlas::LetterBins& grid_of(const EvaluationReport& report,
                                 char letter) {
  return report.grids[static_cast<std::size_t>(
      report.result.service_index(letter))];
}

// Table 1: the paper's key observations, re-verified as an executable
// checklist against one full replay. Each row prints the claim, the
// measured evidence, and PASS/FAIL.
void table1(const EvaluationReport& report, bool csv) {
  const auto& result = report.result;
  util::TextTable table({"section", "observation (paper)", "measured",
                         "status"});
  int failures = 0;
  const auto row = [&](const char* section, const char* claim,
                       const std::string& measured, bool pass) {
    table.begin_row();
    table.cell(section);
    table.cell(claim);
    table.cell(measured);
    table.cell(pass ? "PASS" : "FAIL");
    if (!pass) ++failures;
  };
  const auto bin_start = [&](std::size_t b) {
    return net::SimTime(result.probe_window.begin.ms +
                        static_cast<std::int64_t>(b) * result.bin_width.ms);
  };

  // §3.2: letters saw minimal to severe loss (1% to 95%).
  {
    double lo = 1.0, hi = 0.0;
    for (const auto& s : report.letters) {
      if (s.letter == 'A') continue;  // coarse probing, as in the paper
      lo = std::min(lo, s.worst_loss);
      hi = std::max(hi, s.worst_loss);
    }
    row("3.2", "letters saw minimal to severe loss (1%..95%)",
        fmt(100 * lo, 0) + "%.." + fmt(100 * hi, 0) + "%",
        lo < 0.15 && hi > 0.6);
  }

  // §3.3: loss is not uniform across a letter's sites.
  {
    const auto stability = analysis::site_stability(
        grid_of(report, 'K'), result, 'K',
        analysis::stability_threshold(static_cast<int>(result.vps.size())));
    double site_lo = 1e9, site_hi = 0.0;
    for (const auto& s : stability) {
      if (s.below_threshold) continue;
      site_lo = std::min(site_lo, s.min_norm);
      site_hi = std::max(site_hi, s.min_norm);
    }
    row("3.3", "per-site damage within one letter is uneven",
        "K site min/median spans " + fmt(site_lo, 2) + ".." + fmt(site_hi, 2),
        site_lo < 0.3 && site_hi > 0.9);
  }

  // §3.3.2: surviving overloaded sites show second-scale RTTs.
  {
    const auto* ams = result.find_site('K', "AMS");
    analysis::RttFilter filter;
    filter.service_index = result.service_index('K');
    filter.site_id = ams != nullptr ? ams->site_id : -2;
    const double stressed = analysis::median_rtt_in(
        result.records, filter, attack::kEvent1.begin, attack::kEvent1.end);
    row("3.3", "degraded absorbers serve at ~1-2s RTT (K-AMS)",
        fmt(stressed, 0) + " ms during event 1", stressed > 400.0);
  }

  // §3.4: site flips burst during the events.
  {
    const auto flips = analysis::site_flips_per_bin(grid_of(report, 'K'));
    int event_flips = 0, total = 0;
    for (std::size_t b = 0; b < flips.size(); ++b) {
      total += flips[b];
      if (attack::kEvent1.contains(bin_start(b)) ||
          attack::kEvent2.contains(bin_start(b))) {
        event_flips += flips[b];
      }
    }
    row("3.4", "users flip sites; bursts during events",
        std::to_string(event_flips) + " of " + std::to_string(total) +
            " K flips inside event windows",
        total > 0 && event_flips > total / 2);
  }

  // §3.5: some servers suffer disproportionately.
  {
    const auto* nrt = result.find_site('K', "NRT");
    bool uneven = false;
    std::string measured = "no data";
    if (nrt != nullptr) {
      const std::size_t bins = probe_bins(result);
      const auto servers = analysis::server_breakdown(
          result.records, result, nrt->site_id, result.probe_window.begin,
          result.bin_width, bins);
      int lo = INT32_MAX, hi = 0;
      for (const auto& s : servers) {
        int replies = 0;
        for (std::size_t b = 0; b < bins; ++b) {
          if (attack::kEvent1.contains(bin_start(b))) {
            replies += s.replies_per_bin[b];
          }
        }
        lo = std::min(lo, replies);
        hi = std::max(hi, replies);
      }
      measured = "K-NRT per-server event replies " + std::to_string(lo) +
                 ".." + std::to_string(hi);
      uneven = hi > 0 && lo < (hi * 3) / 4;
    }
    row("3.5", "within a site, some servers suffer more", measured, uneven);
  }

  // §3.6: collateral damage on services not under attack.
  {
    double worst = 1.0;
    for (const auto& site : analysis::nl_query_rates(result)) {
      for (const double v : site.normalized_qps) worst = std::min(worst, v);
    }
    row("3.6", "collateral damage on co-located services (.nl ~0)",
        ".nl worst normalized rate " + fmt(worst, 2), worst < 0.3);
  }

  util::emit(table, "Table 1: key observations, re-verified", csv,
             std::cout);
  if (failures > 0) {
    std::cout << failures << " observation(s) FAILED\n";
  }
  table1_failures += failures;
}

// Table 2: the 13 root letters — reported architecture vs. sites observed
// through CHAOS probing.
void table2(const EvaluationReport& report, bool csv) {
  const auto letters = anycast::root_letter_table(0);  // operator names only
  util::TextTable table({"letter", "operator", "reported", "(global,local)",
                         "observed"});
  for (const auto& summary : report.letters) {
    const auto& cfg = anycast::find_letter(letters, summary.letter);
    table.begin_row();
    table.cell(std::string(1, summary.letter));
    table.cell(cfg.operator_name);
    table.cell(cfg.reported_sites);
    char arch[48];
    if (cfg.unicast) {
      std::snprintf(arch, sizeof arch, "(unicast)");
    } else if (cfg.primary_backup) {
      std::snprintf(arch, sizeof arch, "(pri/back)");
    } else {
      std::snprintf(arch, sizeof arch, "(%d, %d)", cfg.reported_global,
                    cfg.reported_local);
    }
    table.cell(arch);
    table.cell(summary.observed_sites);
  }
  util::emit(table, "Table 2: root letters, reported vs. observed sites",
             csv, std::cout);
}

// Table 3: RSSAC-002 event-size estimation — per-letter deltas vs. the
// 7-day baseline, with lower / scaled / upper bounds.
void table3(const EvaluationReport& report, bool csv) {
  const analysis::EventSizeEstimate estimate =
      analysis::estimate_event_size(report.result);

  util::TextTable table({"RSSAC", "d0 dQ Mq/s", "d0 dQ Gb/s", "d0 M IPs(x)",
                         "d0 dR Mq/s", "d0 dR Gb/s", "d1 dQ Mq/s",
                         "d1 dQ Gb/s", "d1 M IPs(x)", "d1 dR Mq/s",
                         "d1 dR Gb/s", "base Mq/s", "base M IPs"});
  // One event day's five cells; bound rows print "-" for unique IPs.
  const auto day_cells = [&](const analysis::EventCell& c, bool ips) {
    table.cell(c.dq_mqs, 2);
    table.cell(c.dq_gbps, 2);
    if (ips) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.1f(%.0fx)", c.ips_m, c.ips_ratio);
      table.cell(buf);
    } else {
      table.cell("-");
    }
    table.cell(c.dr_mqs, 2);
    table.cell(c.dr_gbps, 2);
  };
  for (const auto& row : estimate.rows) {
    table.begin_row();
    std::string name(1, row.letter);
    if (!row.attacked) name += "*";  // not attacked; excluded from bounds
    table.cell(name);
    day_cells(row.day0, true);
    day_cells(row.day1, true);
    table.cell(row.baseline_mqs, 3);
    table.cell(row.baseline_ips_m, 2);
  }
  const auto bound_row = [&](const char* name, const analysis::EventCell& d0,
                             const analysis::EventCell& d1) {
    table.begin_row();
    table.cell(name);
    day_cells(d0, false);
    day_cells(d1, false);
    table.cell("-");
    table.cell("-");
  };
  bound_row("lower", estimate.lower_day0, estimate.lower_day1);
  bound_row("(scaled)", estimate.scaled_day0, estimate.scaled_day1);
  bound_row("upper", estimate.upper_day0, estimate.upper_day1);
  util::emit(table, "Table 3: event sizes from RSSAC-002 reports", csv,
             std::cout);

  if (!csv) {
    std::cout << "inferred attack query payloads: day0="
              << estimate.query_payload_day0 << "B (paper: 32-47B bin), day1="
              << estimate.query_payload_day1
              << "B (paper: 16-31B bin); responses ~"
              << estimate.response_payload << "B (paper: 480-495B)\n";
  }
}

// Figure 3: number of VPs with successful queries per letter (10-minute
// bins), plus the sites-vs-worst-reachability correlation (§3.2.1).
void fig3(const EvaluationReport& report, bool csv) {
  const auto& result = report.result;
  // Reachability series per letter (A scaled for its 30-min cadence).
  const auto letter_table = anycast::root_letter_table(0);
  std::vector<analysis::LetterReachability> series;
  std::vector<char> letters;
  std::vector<std::string> columns;
  for (char letter = 'A'; letter <= 'M'; ++letter) {
    if (result.service_index(letter) < 0) continue;
    const auto& cfg = anycast::find_letter(letter_table, letter);
    series.push_back(analysis::reachability_series(
        grid_of(report, letter), letter, cfg.probe_interval_s,
        /*scale_for_cadence=*/true));
    letters.push_back(letter);
    columns.emplace_back(1, letter);
  }
  emit_series(std::move(columns), result.probe_window.begin,
              result.bin_width, series.front().successful_per_bin.size(),
              "Fig 3: VPs with successful queries (per 10-min bin)", csv,
              [&](util::TextTable& table, std::size_t b) {
                for (const auto& s : series) {
                  table.cell(s.successful_per_bin[b]);
                }
              });

  // Dips + correlation: attacked letters, excluding A (too coarse).
  util::TextTable dips({"letter", "sites (Table 2)", "min VPs", "min at"});
  std::vector<analysis::LetterPoint> points;
  for (std::size_t i = 0; i < letters.size(); ++i) {
    const auto& cfg = anycast::find_letter(letter_table, letters[i]);
    dips.begin_row();
    dips.cell(std::string(1, letters[i]));
    dips.cell(cfg.reported_sites);
    dips.cell(series[i].min_vps);
    dips.cell(bin_label(result.probe_window.begin, result.bin_width,
                        series[i].min_bin));
    if (cfg.attacked && letters[i] != 'A') {
      points.push_back(analysis::LetterPoint{letters[i], cfg.reported_sites,
                                             series[i].min_vps});
    }
  }
  util::emit(dips, "Fig 3 dips per letter", csv, std::cout);

  const auto corr = analysis::sites_vs_min_reachability(std::move(points));
  std::cout << "sites vs. worst reachability over attacked letters: R^2 = "
            << corr.fit.r_squared << " (paper: 0.87)\n";
}

// Figure 4: median RTT for letters with visible change during the events
// (paper shows B, C, G, H, K; others omitted as unchanged).
void fig4(const EvaluationReport& report, bool csv) {
  const auto& result = report.result;
  const std::size_t bins = probe_bins(result);
  std::vector<std::vector<double>> series;
  std::vector<std::string> columns;
  for (const char letter : {'B', 'C', 'G', 'H', 'K'}) {
    analysis::RttFilter filter;
    filter.service_index = result.service_index(letter);
    series.push_back(analysis::median_rtt_series(result.records, filter,
                                                 result.probe_window.begin,
                                                 result.bin_width, bins));
    columns.push_back(std::string(1, letter) + " ms");
  }
  emit_series(std::move(columns), result.probe_window.begin,
              result.bin_width, bins, "Fig 4: median RTT per letter (ms)",
              csv, [&](util::TextTable& table, std::size_t b) {
                for (const auto& s : series) table.cell(s[b], 1);
              });
}

// Figure 5: per-site min/max VPs normalized to median, E- and K-Root.
void fig5(const EvaluationReport& report, bool csv) {
  const auto& result = report.result;
  const double threshold = analysis::stability_threshold(
      static_cast<int>(result.vps.size()));
  for (const char letter : {'E', 'K'}) {
    const auto stability = analysis::site_stability(
        grid_of(report, letter), result, letter, threshold);
    util::TextTable table({"site", "median VPs", "min", "max", "min/med",
                           "max/med", "low-visibility"});
    for (const auto& site : stability) {
      table.begin_row();
      table.cell(site.label);
      table.cell(site.median_vps, 1);
      table.cell(site.min_vps);
      table.cell(site.max_vps);
      table.cell(site.min_norm, 2);
      table.cell(site.max_norm, 2);
      table.cell(site.below_threshold ? "yes" : "");
    }
    util::emit(table,
               std::string("Fig 5: site stability, ") + letter +
                   "-Root (threshold " + std::to_string(threshold) + " VPs)",
               csv, std::cout);
  }
}

// Figure 6: per-site catchment time series for E- and K-Root, rendered as
// density strips (text) or full series (CSV).
void fig6(const EvaluationReport& report, bool csv) {
  for (const char letter : {'E', 'K'}) {
    const auto series = analysis::site_catchment_series(
        grid_of(report, letter), report.result, letter);
    if (csv) {
      util::TextTable table({"site", "median", "bin", "vps"});
      for (const auto& site : series) {
        for (std::size_t b = 0; b < site.vps_per_bin.size(); ++b) {
          table.begin_row();
          table.cell(site.label);
          table.cell(site.median, 1);
          table.cell(b);
          table.cell(site.vps_per_bin[b]);
        }
      }
      table.print_csv(std::cout);
      continue;
    }
    std::cout << "== Fig 6: catchment series, " << letter
              << "-Root (one strip per site; darker = more VPs vs. median; "
                 "events at 06:50-09:30 and 29:10-30:10) ==\n";
    for (const auto& site : series) {
      std::printf("%-7s (%6.1f) |%s|  critical bins: %zu\n",
                  site.label.c_str(), site.median,
                  spark(coarsen(site.vps_per_bin), site.median * 2.0).c_str(),
                  site.critical_bins.size());
    }
    std::cout << '\n';
  }
}

// Figure 7: median RTT for stressed K-Root sites (K-AMS rose from ~30 ms
// to 1-2 s; K-NRT similar — degraded absorbers with deep buffers).
void fig7(const EvaluationReport& report, bool csv) {
  const auto& result = report.result;
  const std::vector<const char*> codes{"AMS", "NRT", "LHR", "FRA"};
  const std::size_t bins = probe_bins(result);
  std::vector<std::vector<double>> series;
  std::vector<std::string> columns;
  for (const char* code : codes) {
    const auto* site = result.find_site('K', code);
    analysis::RttFilter filter;
    filter.service_index = result.service_index('K');
    filter.site_id = site != nullptr ? site->site_id : -2;
    series.push_back(analysis::median_rtt_series(result.records, filter,
                                                 result.probe_window.begin,
                                                 result.bin_width, bins));
    columns.push_back(std::string("K-") + code + " ms");
  }
  emit_series(std::move(columns), result.probe_window.begin,
              result.bin_width, bins,
              "Fig 7: median RTT at stressed K-Root sites", csv,
              [&](util::TextTable& table, std::size_t b) {
                for (const auto& sv : series) table.cell(sv[b], 1);
              });

  // Event peaks, the headline numbers of §3.3.2.
  for (std::size_t i = 0; i < codes.size(); ++i) {
    double peak = 0.0;
    for (double v : series[i]) peak = std::max(peak, v);
    std::cout << "K-" << codes[i] << " peak median RTT: " << peak << " ms\n";
  }
}

// Figure 8: site flips per letter per bin — bursts during the events.
void fig8(const EvaluationReport& report, bool csv) {
  const auto& result = report.result;
  const std::vector<char> shown{'C', 'E', 'H', 'I', 'J', 'K'};
  std::vector<std::vector<int>> flips;
  std::vector<std::string> columns;
  for (char letter : shown) {
    flips.push_back(analysis::site_flips_per_bin(grid_of(report, letter)));
    columns.emplace_back(1, letter);
  }
  emit_series(std::move(columns), result.probe_window.begin,
              result.bin_width, flips.front().size(),
              "Fig 8: site flips per letter (per 10-min bin)", csv,
              [&](util::TextTable& table, std::size_t b) {
                for (const auto& f : flips) table.cell(f[b]);
              });

  util::TextTable totals({"letter", "total flips"});
  for (std::size_t i = 0; i < shown.size(); ++i) {
    int total = 0;
    for (int f : flips[i]) total += f;
    totals.begin_row();
    totals.cell(std::string(1, shown[i]));
    totals.cell(total);
  }
  util::emit(totals, "Fig 8 totals", csv, std::cout);
}

// Figure 9: BGP route changes per letter seen from the collector peers
// (10-minute bins) — event-driven bursts over background churn.
void fig9(const EvaluationReport& report, bool csv) {
  const auto& result = report.result;
  std::vector<std::vector<std::uint64_t>> series;
  std::vector<std::string> columns;
  for (const char letter : {'C', 'E', 'F', 'G', 'H', 'J', 'K'}) {
    series.push_back(analysis::collector_changes_per_bin(result, letter));
    columns.emplace_back(1, letter);
  }
  emit_series(std::move(columns), result.start, result.bin_width,
              series.front().size(),
              "Fig 9: route-change observations at collector peers "
              "(per 10-min bin)",
              csv, [&](util::TextTable& table, std::size_t b) {
                for (const auto& s : series) table.cell(s[b]);
              });
}

// Figure 10: where K-LHR and K-FRA clients went during the events (the
// paper: 70-80% of shifting VPs went to K-AMS), where K-AMS's new VPs
// came from, and the post-event return.
void fig10(const EvaluationReport& report, bool csv) {
  const auto& result = report.result;
  const auto& grid = grid_of(report, 'K');
  const std::size_t before1 = grid.bin_of(attack::kEvent1.begin) - 1;
  const std::size_t end1 = grid.bin_of(attack::kEvent1.end - net::SimTime(1));
  const std::size_t after1 = std::min(grid.bin_count() - 1, end1 + 12);

  const auto emit_map = [&](const std::map<int, int>& counts,
                            const std::string& title) {
    int total = 0;
    for (const auto& [site, n] : counts) total += n;
    util::TextTable table({"destination", "VPs", "share"});
    for (const auto& [site, n] : counts) {
      table.begin_row();
      table.cell(site < 0
                     ? std::string("(stayed / no other site)")
                     : result.sites[static_cast<std::size_t>(site)].label);
      table.cell(n);
      table.cell(total > 0 ? 100.0 * n / total : 0.0, 1);
    }
    util::emit(table, title, csv, std::cout);
  };
  for (const char* code : {"LHR", "FRA"}) {
    const auto* site = result.find_site('K', code);
    if (site == nullptr) continue;
    emit_map(analysis::flip_destinations(grid, site->site_id, before1, end1),
             std::string("Fig 10: K-") + code +
                 " VPs during event 1 (destinations)");
  }
  if (const auto* ams = result.find_site('K', "AMS"); ams != nullptr) {
    emit_map(analysis::flip_origins(grid, ams->site_id, before1, end1),
             "Fig 10: new K-AMS VPs during event 1 (came from)");
    emit_map(analysis::flip_destinations(grid, ams->site_id, end1, after1),
             "Fig 10: K-AMS VPs after event 1 (return to)");
  }
}

// Figure 11: per-VP site-choice strips for K-Root clients that start at
// K-LHR / K-FRA, in 4-minute bins across 36 hours. Legend:
//   L = K-LHR, F = K-FRA, A = K-AMS, . = other K site,
//   x = no response (timeout/error), ' ' = no probe in bin.
void fig11(const EvaluationReport& report, bool csv) {
  const auto& result = report.result;
  // The paper uses 4-minute bins (one probe interval) for this figure.
  const net::SimTime strip_bin = net::SimTime::from_minutes(4);
  const std::size_t bins = static_cast<std::size_t>(
      net::SimTime::from_hours(36).ms / strip_bin.ms);
  atlas::LetterBins grid(static_cast<int>(result.vps.size()),
                         result.probe_window.begin, strip_bin, bins);
  const int k = result.service_index('K');
  for (const auto& record : result.records.letter(k)) grid.add(record);

  std::map<int, char> chars;
  std::vector<int> starts;
  for (const auto& [code, mark] :
       {std::pair{"LHR", 'L'}, std::pair{"FRA", 'F'}, std::pair{"AMS", 'A'}}) {
    const auto* site = result.find_site('K', code);
    if (site == nullptr) continue;
    chars[site->site_id] = mark;
    if (mark != 'A') starts.push_back(site->site_id);
  }

  util::Rng rng(7);
  const auto strips =
      analysis::vp_strips(grid, starts, chars, /*sample=*/300, rng);

  if (csv) {
    util::TextTable table({"vp", "strip"});
    for (const auto& strip : strips) {
      table.begin_row();
      table.cell(strip.vp);
      table.cell(strip.states);
    }
    table.print_csv(std::cout);
    return;
  }

  std::cout << "== Fig 11: " << strips.size()
            << " K-Root VPs starting at K-LHR(L)/K-FRA(F); A=K-AMS, "
               ".=other, x=fail ==\n"
            << "   (events at columns ~"
            << (6 * 60 + 50) / 4 << "-" << (9 * 60 + 30) / 4 << " and ~"
            << (29 * 60 + 10) / 4 << "-" << (30 * 60 + 10) / 4 << ")\n";
  // Print a representative sample of 40 strips, as the paper zooms into.
  const std::size_t show = std::min<std::size_t>(40, strips.size());
  for (std::size_t i = 0; i < show; ++i) {
    std::printf("vp%-6d |%s|\n", strips[i].vp, strips[i].states.c_str());
  }

  // Behaviour groups around event 1 (§3.4.2): stuck / flip+return /
  // flip+stay.
  int stuck = 0, flip_return = 0, flip_stay = 0, dark = 0;
  const std::size_t ev_begin = static_cast<std::size_t>((6 * 60 + 50) / 4);
  const std::size_t ev_end = static_cast<std::size_t>((9 * 60 + 30) / 4);
  for (const auto& strip : strips) {
    const char before = strip.states[ev_begin > 0 ? ev_begin - 1 : 0];
    bool moved = false, responded = false;
    for (std::size_t b = ev_begin; b <= ev_end && b < strip.states.size();
         ++b) {
      const char c = strip.states[b];
      if (c != ' ' && c != 'x') responded = true;
      if (c != ' ' && c != 'x' && c != before) moved = true;
    }
    const char after =
        strip.states[std::min(strip.states.size() - 1, ev_end + 30)];
    if (!responded) {
      ++dark;
    } else if (!moved) {
      ++stuck;
    } else if (after == before) {
      ++flip_return;
    } else {
      ++flip_stay;
    }
  }
  std::printf(
      "\ngroups during event 1: stuck=%d  flip-and-return=%d  "
      "flip-and-stay=%d  dark=%d\n",
      stuck, flip_return, flip_stay, dark);
}

// Figures 12 and 13 read the same per-server breakdown at K-FRA (the
// balancer concentrates on one surviving server, whose RTT stays stable)
// and K-NRT (all servers share the congestion and are slow, S2 worst).
// Fig 12 prints replies per server, Fig 13 median RTT per server.
void emit_servers(const EvaluationReport& report, bool rtt, bool csv) {
  const auto& result = report.result;
  const std::size_t bins = probe_bins(result);
  for (const char* code : {"FRA", "NRT"}) {
    const auto* site = result.find_site('K', code);
    if (site == nullptr) continue;
    const auto servers = analysis::server_breakdown(
        result.records, result, site->site_id, result.probe_window.begin,
        result.bin_width, bins);
    std::vector<std::string> columns;
    for (const auto& s : servers) {
      columns.push_back(std::string("K-") + code + "-S" +
                        std::to_string(s.server) + (rtt ? " ms" : ""));
    }
    emit_series(std::move(columns), result.probe_window.begin,
                result.bin_width, bins,
                std::string(rtt ? "Fig 13: median RTT per server at K-"
                                : "Fig 12: replies per server at K-") +
                    code,
                csv, [&](util::TextTable& table, std::size_t b) {
                  for (const auto& s : servers) {
                    if (rtt) {
                      table.cell(s.median_rtt_per_bin[b], 1);
                    } else {
                      table.cell(s.replies_per_bin[b]);
                    }
                  }
                });
  }
}

void fig12(const EvaluationReport& report, bool csv) {
  emit_servers(report, /*rtt=*/false, csv);
}

void fig13(const EvaluationReport& report, bool csv) {
  emit_servers(report, /*rtt=*/true, csv);
}

// Figure 14: collateral damage at D-Root — D was not attacked, but sites
// co-located with attacked letters (D-FRA, D-SYD) lose VPs during the
// events. Selection per the paper: >= 10% dip, >= 20 VPs median.
void fig14(const EvaluationReport& report, bool csv) {
  const auto& result = report.result;
  const double min_vps = analysis::stability_threshold(
      static_cast<int>(result.vps.size()));
  const auto affected = analysis::collateral_sites(
      grid_of(report, 'D'), result, 'D', analysis::event_bins_2015(result),
      /*min_dip=*/0.10, min_vps);

  util::TextTable table({"site", "median VPs", "worst event fraction"});
  for (const auto& site : affected) {
    table.begin_row();
    table.cell(site.label);
    table.cell(site.median_vps, 1);
    table.cell(site.worst_fraction, 2);
  }
  util::emit(table,
             "Fig 14: D-Root sites with >=10% reachability dips during "
             "the events (D was not attacked)",
             csv, std::cout);

  if (!csv) {
    for (const auto& site : affected) {
      std::printf("%-7s |%s|\n", site.label.c_str(),
                  spark(coarsen(site.vps_per_bin), site.median_vps * 1.5)
                      .c_str());
    }
  }
}

// Figure 15: normalized query rates at two .nl anycast sites co-located
// with root letters — both drop to ~0 during the events (collateral
// damage on a service that is not part of the Root DNS at all).
void fig15(const EvaluationReport& report, bool csv) {
  const auto& result = report.result;
  const auto series = analysis::nl_query_rates(result);
  std::vector<std::string> columns;
  for (const auto& s : series) columns.push_back(s.anonymized_label);
  emit_series(std::move(columns), result.start, result.bin_width,
              series.empty() ? 0 : series.front().normalized_qps.size(),
              ".nl query rates, normalized to each site's median (Fig 15)",
              csv, [&](util::TextTable& table, std::size_t b) {
                for (const auto& s : series) {
                  table.cell(s.normalized_qps[b], 3);
                }
              });

  for (const auto& s : series) {
    double worst = 1e9;
    for (double v : s.normalized_qps) worst = std::min(worst, v);
    std::cout << s.anonymized_label << " worst normalized rate: " << worst
              << " (paper: ~0 during both events)\n";
  }
}

// §2.2 "Policies in Action": the five-case withdraw-vs-absorb analysis
// for s1 = s2, S3 = 10*s1, sweeping attack strength A0 = A1.
void policy_model(const EvaluationReport&, bool csv) {
  util::TextTable table({"A0=A1", "case", "H(no-change)", "H(ISP1->s2)",
                         "H(s1->s2)", "H(s1+s2->S3)", "H(ISP1->S3)",
                         "best strategy", "best H"});
  // Sweep across all five regimes: s1 = s2 = 1, S3 = 10.
  for (const double a : {0.25, 0.49, 0.6, 0.9, 1.2, 2.0, 4.0, 4.9, 5.5, 8.0,
                         10.5, 20.0}) {
    core::PolicyScenario sc;
    sc.A0 = a;
    sc.A1 = a;
    table.begin_row();
    table.cell(a, 2);
    table.cell(core::classify_case(sc));
    for (const auto strategy : core::all_strategies()) {
      table.cell(core::evaluate(sc, strategy).happiness);
    }
    const auto best = core::best_strategy(sc);
    table.cell(core::to_string(best));
    table.cell(core::evaluate(sc, best).happiness);
  }
  util::emit(table,
             "S2.2 policy model: happiness per strategy (s1=s2=1, S3=10)",
             csv, std::cout);

  std::cout << "paper's cases: 1 (absorbed, H=4), 2 (shed ISP1, H=4), "
               "3 (all to S3, H=4), 4 (reroute ISP1, H=3), "
               "5 (degraded absorber, H=2)\n";
}

// §3.2.2: letter flips — the not-attacked letters (D, L, M) gain queries
// during the events as resolvers retry away from attacked letters; the
// paper reports L at 1.66x during event 2 with a 6-13x unique-IP jump.
void letter_flips(const EvaluationReport& report, bool csv) {
  util::TextTable table({"letter", "quiet q/s", "event1 q/s", "event2 q/s",
                         "event1 x", "event2 x", "uniq day0 x",
                         "uniq day1 x"});
  for (const char letter : {'D', 'L', 'M'}) {
    const auto ev = analysis::letter_flip_evidence(report.result, letter);
    table.begin_row();
    table.cell(std::string(1, letter));
    table.cell(ev.quiet_qps, 0);
    table.cell(ev.event1_qps, 0);
    table.cell(ev.event2_qps, 0);
    table.cell(ev.event1_ratio, 2);
    table.cell(ev.event2_ratio, 2);
    table.cell(ev.uniques_day0_ratio, 1);
    table.cell(ev.uniques_day1_ratio, 1);
  }
  util::emit(table,
             "Letter flips: served rates at not-attacked letters "
             "(paper: L at 1.66x in event 2, 6-13x unique IPs)",
             csv, std::cout);
}

// Ablation: the deployment's historical policy mix vs. forced all-absorb
// and all-withdraw regimes — the quantified version of the paper's §2.2
// trade-off and its "alternative policies" future work. Reported metric:
// fraction of legitimate queries served during each event, per letter and
// averaged over attacked letters, plus routing churn.
void ablation_policy(const EvaluationReport&, bool csv) {
  // Run the regime comparison at two attack strengths: a moderate attack
  // (case 2/3 territory, where rerouting can win) and the historical
  // 5 Mq/s (case 5, where absorption dominates).
  for (const double rate_mqps : {1.0, 5.0}) {
    const auto outcomes =
        core::compare_policy_regimes(sim::ScenarioBuilder::november_2015()
                                         .vp_count(sim::vp_count_from_env(100))
                                         .attack_qps(rate_mqps * 1e6)
                                         .build());
    engine_runs += static_cast<int>(outcomes.size());

    util::TextTable table({"regime", "mean served e1", "mean served e2",
                           "route changes"});
    for (const auto& outcome : outcomes) {
      table.begin_row();
      table.cell(core::to_string(outcome.regime));
      table.cell(outcome.mean_served_event1, 3);
      table.cell(outcome.mean_served_event2, 3);
      table.cell(outcome.total_route_changes);
    }
    char title[128];
    std::snprintf(title, sizeof title,
                  "Policy ablation at %.0f Mq/s per attacked letter",
                  rate_mqps);
    util::emit(table, title, csv, std::cout);

    if (rate_mqps == 5.0) {
      util::TextTable per_letter({"letter", "as-deployed e1",
                                  "all-absorb e1", "all-withdraw e1",
                                  "oracle e1"});
      for (std::size_t i = 0; i < outcomes[0].letters.size(); ++i) {
        const char letter = outcomes[0].letters[i].letter;
        if (letter == 'N') continue;
        per_letter.begin_row();
        per_letter.cell(std::string(1, letter));
        for (const auto& outcome : outcomes) {
          per_letter.cell(outcome.letters[i].served_fraction_event1, 3);
        }
      }
      util::emit(per_letter, "Per-letter served fraction, event 1 (5 Mq/s)",
                 csv, std::cout);
    }
  }
  std::cout << "expected shape: at moderate attacks rerouting competes "
               "(cases 2/3); at 5 Mq/s absorption dominates and reactive "
               "withdrawal only churns routes (case 5) -- the paper's "
               "'absorption is a good default' conclusion.\n";
}

// Ablation: sweep the attack rate and watch the regime crossovers — at
// what strength does each letter class tip over? (The §2.2 model's cases
// played out on the full deployment.)
void ablation_attack(const EvaluationReport&, bool csv) {
  const std::vector<char> shown{'A', 'B', 'C', 'E', 'H', 'J', 'K'};
  // Worst legit served fraction across event-1 bins for one letter.
  const auto worst_served = [](const sim::SimulationResult& result,
                               char letter) {
    const auto s = static_cast<std::size_t>(result.service_index(letter));
    const auto& served = result.service_served_legit_qps[s];
    const auto& failed = result.service_failed_legit_qps[s];
    double worst = 1.0;
    for (std::size_t b = 0; b < served.bin_count(); ++b) {
      const net::SimTime begin(served.bin_start(b));
      const net::SimTime end(begin.ms + served.bin_ms());
      if (!(attack::kEvent1.begin < end && begin < attack::kEvent1.end)) {
        continue;
      }
      const double sv = served.mean(b);
      const double fl = failed.mean(b);
      if (sv + fl > 0.0) worst = std::min(worst, sv / (sv + fl));
    }
    return worst;
  };

  std::vector<std::string> headers{"attack Mq/s"};
  for (char letter : shown) headers.emplace_back(1, letter);
  util::TextTable table(std::move(headers));
  for (const double rate : {0.25, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    const EvaluationReport report =
        simulate(sim::ScenarioBuilder::november_2015()
                     .vp_count(100)
                     .attack_qps(rate * 1e6)
                     .duration(net::SimTime::from_hours(10))  // event 1 only
                     .fluid_only()
                     .build());
    table.begin_row();
    table.cell(rate, 2);
    for (char letter : shown) {
      table.cell(worst_served(report.result, letter), 3);
    }
  }
  util::emit(table,
             "Attack-rate sweep: worst legit served fraction during "
             "event 1",
             csv, std::cout);
  std::cout << "expected shape: A stays ~1.0 throughout; B collapses "
               "first; multi-site letters degrade gradually with rate.\n";
}

// §3.3.1 control experiment: the catchment swings of Fig 5 are
// event-driven, not typical. On quiet days K-Root sites show essentially
// no per-site variation and E-Root only minor variation (the paper's
// "mostly within 8%" for 13 E sites).
void normal_days(const EvaluationReport&, bool csv) {
  const EvaluationReport event_rep =
      simulate(event_scenario({'E', 'K'}, 2000).build());
  const EvaluationReport quiet_rep =
      simulate(sim::ScenarioBuilder::quiet_days()
                   .vp_count(sim::vp_count_from_env(2000))
                   .probe_letters({'E', 'K'})
                   .build());
  const double threshold = analysis::stability_threshold(
      static_cast<int>(event_rep.result.vps.size()));
  for (const char letter : {'E', 'K'}) {
    const auto event_stab = analysis::site_stability(
        grid_of(event_rep, letter), event_rep.result, letter, threshold);
    const auto quiet_stab = analysis::site_stability(
        grid_of(quiet_rep, letter), quiet_rep.result, letter, threshold);

    util::TextTable table({"site", "event min/med", "event max/med",
                           "quiet min/med", "quiet max/med"});
    for (const auto& es : event_stab) {
      if (es.below_threshold) continue;
      const auto qs = std::find_if(
          quiet_stab.begin(), quiet_stab.end(),
          [&](const auto& candidate) { return candidate.label == es.label; });
      const bool matched = qs != quiet_stab.end();
      table.begin_row();
      table.cell(es.label);
      table.cell(es.min_norm, 2);
      table.cell(es.max_norm, 2);
      table.cell(matched ? qs->min_norm : 0.0, 2);
      table.cell(matched ? qs->max_norm : 0.0, 2);
    }
    util::emit(table,
               std::string("Normal-days control, ") + letter +
                   "-Root (paper: quiet-day variation ~none for K, within "
                   "~8% for E)",
               csv, std::cout);
  }
}

// The June 25, 2016 follow-up event (§2.3 "Generalizing"): a different
// attack shape through the same deployment and pipeline. Also emits RTT
// CDF shifts (quiet vs. event) as Kolmogorov-Smirnov distances.
void event_2016(const EvaluationReport& report, bool csv) {
  const auto& result = report.result;
  util::TextTable table({"letter", "typ VPs", "min VPs", "worst loss",
                         "RTT KS(quiet,event)"});
  for (const auto& summary : report.letters) {
    // RTT CDF shift: quiet vs. event window samples.
    std::vector<double> quiet, stressed;
    const int s = result.service_index(summary.letter);
    for (const auto& record : result.records.letter(s)) {
      if (record.outcome != atlas::ProbeOutcome::kSite) continue;
      (attack::kEvent2016.contains(record.time()) ? stressed : quiet)
          .push_back(static_cast<double>(record.rtt_ms));
    }
    const double ks =
        quiet.empty() || stressed.empty()
            ? 0.0
            : analysis::ks_distance(analysis::EmpiricalCdf(quiet),
                                    analysis::EmpiricalCdf(stressed));
    table.begin_row();
    table.cell(std::string(1, summary.letter));
    table.cell(summary.baseline_vps);
    table.cell(summary.min_vps);
    table.cell(summary.worst_loss, 2);
    table.cell(ks, 3);
  }
  util::emit(table,
             "June 2016 event: per-letter damage and RTT-distribution "
             "shift (same operational choices, different event)",
             csv, std::cout);
}

// "Policies in action" inventory: classify every site's observed
// behaviour during the events from measurement data alone — the
// automated version of the paper's §3.3 narrative (E mostly withdrew /
// shifted; most K sites overlooked the attack while AMS absorbed).
void policy_inventory(const EvaluationReport& report, bool csv) {
  const auto& result = report.result;
  const auto event_bins = analysis::event_bins_2015(result);
  analysis::BehaviorThresholds thresholds;
  thresholds.min_median_vps = analysis::stability_threshold(
      static_cast<int>(result.vps.size()));

  util::TextTable inventory_table({"letter", "unaffected", "withdrew",
                                   "absorbers", "receivers",
                                   "low-visibility"});
  for (const char letter : {'E', 'K'}) {
    const auto reports =
        analysis::classify_sites(grid_of(report, letter), result.records,
                                 result, letter, event_bins, thresholds);
    const auto inv = analysis::inventory(reports, letter);
    inventory_table.begin_row();
    inventory_table.cell(std::string(1, letter));
    inventory_table.cell(inv.unaffected);
    inventory_table.cell(inv.withdrew);
    inventory_table.cell(inv.absorbers);
    inventory_table.cell(inv.receivers);
    inventory_table.cell(inv.low_visibility);

    util::TextTable detail({"site", "behaviour", "median VPs",
                            "event min/med", "event max/med",
                            "RTT quiet->event ms"});
    for (const auto& r : reports) {
      if (r.behavior == analysis::SiteBehavior::kLowVisibility) continue;
      detail.begin_row();
      detail.cell(r.label);
      detail.cell(analysis::to_string(r.behavior));
      detail.cell(r.median_vps, 1);
      detail.cell(r.event_min_fraction, 2);
      detail.cell(r.event_max_fraction, 2);
      detail.cell(std::to_string(static_cast<int>(r.rtt_quiet_ms)) + " -> " +
                  std::to_string(static_cast<int>(r.rtt_event_ms)));
    }
    util::emit(detail,
               std::string("Observed behaviour, ") + letter + "-Root sites",
               csv, std::cout);
  }
  util::emit(inventory_table,
             "Policy inventory (paper: E = waterbed/withdraw, "
             "K = mattress/absorb with AMS receiving)",
             csv, std::cout);
}

// Proximity/geo-inflation analysis: how far past their closest site does
// BGP route clients, and how much worse does it get when the events
// displace catchments? (The anycast-proximity question of the paper's
// related work [23], [7], answered for the simulated deployment.)
void proximity(const EvaluationReport& report, bool csv) {
  util::TextTable table({"letter", "window", "probes", "median infl ms",
                         "p90 infl ms", "at-best-site"});
  struct Window {
    const char* name;
    net::SimTime from, to;
  };
  const Window windows[] = {
      {"quiet", net::SimTime(0), attack::kEvent1.begin},
      {"event1", attack::kEvent1.begin, attack::kEvent1.end},
  };
  for (const char letter : {'E', 'K', 'J'}) {
    for (const auto& window : windows) {
      const auto sample = analysis::proximity_inflation(
          report.result, letter, window.from, window.to);
      table.begin_row();
      table.cell(std::string(1, letter));
      table.cell(window.name);
      table.cell(sample.inflation_ms.size());
      table.cell(sample.median_ms, 1);
      table.cell(sample.p90_ms, 1);
      table.cell(sample.optimal_fraction, 2);
    }
  }
  util::emit(table,
             "Anycast proximity: propagation-RTT inflation over the "
             "closest site (quiet vs. event 1)",
             csv, std::cout);
  std::cout << "expected shape: geographic inflation barely moves even "
               "during the event -- intra-European displacement (LHR/FRA "
               "-> AMS) adds almost no propagation distance. The second-"
               "scale RTTs of Fig 7 are queueing delay, not geography; "
               "H-Root's coast-to-coast failover (Fig 4) is the "
               "exception that is.\n";
}

struct Figure {
  const char* name;
  void (*print)(const EvaluationReport& report, bool csv);
};

/// One simulated scenario and the figures that read its report, in print
/// order. A null `config` groups figures that run their own simulations
/// (or none).
struct Scenario {
  sim::ScenarioBuilder (*config)();
  std::vector<Figure> figures;
};

// Scenarios run largest first (by peak memory), so every later, smaller
// scenario fits in memory the allocator already holds and the peak stays
// at the largest scenario's.
const Scenario kScenarios[] = {
    {[] { return event_scenario({}, 1200); },
     {{"fig3", fig3}, {"fig8", fig8}}},
    {[] { return event_scenario({}, 1000); },
     {{"table1", table1}, {"table2", table2}, {"fig4", fig4}}},
    {[] {
       return sim::ScenarioBuilder::events_2016().vp_count(
           sim::vp_count_from_env(800));
     },
     {{"event_2016", event_2016}}},
    {nullptr,
     {{"normal_days", normal_days},
      {"ablation_policy", ablation_policy},
      {"ablation_attack", ablation_attack},
      {"policy_model", policy_model}}},
    {[] { return event_scenario({'E', 'K'}, 2500); },
     {{"fig5", fig5}, {"fig6", fig6}, {"policy_inventory", policy_inventory}}},
    {[] { return event_scenario({'E', 'K', 'J'}, 1500); },
     {{"proximity", proximity}}},
    {[] { return event_scenario({'K'}, 2500); },
     {{"fig7", fig7},
      {"fig10", fig10},
      {"fig11", fig11},
      {"fig12", fig12},
      {"fig13", fig13}}},
    {[] { return event_scenario({'D'}, 2500); }, {{"fig14", fig14}}},
    // Fluid-only run over baseline week + event days: RSSAC needs no
    // probes. Fixed at 100 VPs.
    {[] {
       return sim::ScenarioBuilder::november_2015()
           .vp_count(100)
           .include_baseline_week()
           .collect_records(false)
           .enable_collector(false);
     },
     {{"table3", table3}, {"letter_flips", letter_flips}}},
    // Probing is irrelevant to Fig 9; keep the VP count minimal and let
    // the fluid/BGP layers do the work.
    {[] { return event_scenario({'K'}, 200).collect_records(false); },
     {{"fig9", fig9}}},
    // Fluid-only: Fig 15 is server-side query rates, no probing involved.
    {[] {
       return event_scenario({'K'}, 100)
           .collect_records(false)
           .enable_collector(false);
     },
     {{"fig15", fig15}}},
};

}  // namespace

int main(int argc, char** argv) {
  const auto started = std::chrono::steady_clock::now();
  const bool csv = util::csv_requested(argc, argv);
  std::set<std::string> selected;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") != 0) selected.insert(argv[i]);
  }
  std::set<std::string> known;
  std::string valid_names;
  for (const auto& scenario : kScenarios) {
    for (const auto& figure : scenario.figures) {
      known.insert(figure.name);
      valid_names += ' ';
      valid_names += figure.name;
    }
  }
  for (const auto& name : selected) {
    if (!known.contains(name)) {
      std::cerr << "paper_report: unknown figure '" << name
                << "'; valid names:" << valid_names << '\n';
      return 2;
    }
  }

  const auto wanted = [&](const Figure& figure) {
    return selected.empty() || selected.contains(figure.name);
  };
  int printed = 0;
  for (const auto& scenario : kScenarios) {
    if (std::none_of(scenario.figures.begin(), scenario.figures.end(),
                     wanted)) {
      continue;
    }
    const EvaluationReport report = scenario.config != nullptr
                                        ? simulate(scenario.config().build())
                                        : EvaluationReport{};
    for (const auto& figure : scenario.figures) {
      if (!wanted(figure)) continue;
      figure.print(report, csv);
      ++printed;
    }
  }
  std::cout.flush();
  std::fprintf(stderr,
               "paper_report: %d figures printed, %d engine runs, %.1f s "
               "wall\n",
               printed, engine_runs,
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started)
                   .count());
  return table1_failures == 0 ? 0 : 1;
}
