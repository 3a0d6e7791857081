#include "core/report_writer.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "analysis/collateral.h"
#include "analysis/letter_flips.h"
#include "atlas/dnsmon.h"
#include "obs/json.h"

namespace rootstress::core {

namespace {

void write_header(const EvaluationReport& report, const ReportOptions& options,
                  std::ostream& os) {
  const auto& result = report.result;
  os << "# " << options.title << "\n\n";
  os << "Simulated span: " << result.start.to_string() << " .. "
     << result.end.to_string() << " (epoch = 2015-11-30T00:00Z); "
     << result.vps.size() << " vantage points, " << result.sites.size()
     << " anycast sites.\n\n";
  os << "Data cleaning kept " << result.cleaning.kept_vps << "/"
     << result.cleaning.total_vps << " VPs ("
     << result.cleaning.dropped_old_firmware << " old firmware, "
     << result.cleaning.dropped_hijacked << " hijacked); "
     << result.records.size() << " measurements, "
     << result.route_changes.size() << " route changes.\n\n";
}

void write_letter_table(const EvaluationReport& report, std::ostream& os) {
  os << "## Per-letter damage\n\n";
  os << "| letter | sites (rep/obs) | typical VPs | min VPs | worst loss | "
        "RTT quiet->event (ms) | site flips |\n";
  os << "|---|---|---|---|---|---|---|\n";
  for (const auto& s : report.letters) {
    std::ostringstream row;
    row << "| " << s.letter << " | " << s.reported_sites << " / "
        << s.observed_sites << " | " << s.baseline_vps << " | " << s.min_vps
        << " | " << static_cast<int>(100.0 * s.worst_loss + 0.5) << "% | "
        << static_cast<int>(s.median_rtt_quiet_ms + 0.5) << " -> "
        << static_cast<int>(s.median_rtt_event_ms + 0.5) << " | "
        << s.site_flips << " |\n";
    os << row.str();
  }
  os << '\n';
}

void write_highlights(const EvaluationReport& report, std::ostream& os) {
  // The report calls out the letters at the extremes.
  const LetterSummary* worst = nullptr;
  const LetterSummary* most_flips = nullptr;
  for (const auto& s : report.letters) {
    if (worst == nullptr || s.worst_loss > worst->worst_loss) worst = &s;
    if (most_flips == nullptr || s.site_flips > most_flips->site_flips) {
      most_flips = &s;
    }
  }
  os << "## Highlights\n\n";
  if (worst != nullptr) {
    os << "- Hardest hit: **" << worst->letter << "-Root** ("
       << static_cast<int>(100.0 * worst->worst_loss + 0.5)
       << "% of its vantage points lost service at the worst moment).\n";
  }
  if (most_flips != nullptr && most_flips->site_flips > 0) {
    os << "- Most routing churn: **" << most_flips->letter << "-Root** ("
       << most_flips->site_flips << " site flips).\n";
  }
  os << '\n';
}

void write_dnsmon(const EvaluationReport& report, std::ostream& os) {
  os << "## DNSMON board\n\n```\n";
  const auto rows =
      atlas::render_dnsmon(report.grids, /*bins_per_char=*/6);
  for (const auto& row : rows) {
    if (row.letter > 'M') break;  // .nl is not part of the board
    os << row.letter << " |" << row.strip << "|  uptime "
       << static_cast<int>(100.0 * std::min(1.0, row.uptime) + 0.5) << "%\n";
  }
  os << "```\n\n";
}

void write_collateral(const EvaluationReport& report, std::ostream& os) {
  const auto nl = analysis::nl_query_rates(report.result);
  if (nl.empty()) return;
  os << "## Collateral damage\n\n";
  for (const auto& site : nl) {
    double worst = 1e9;
    for (const double v : site.normalized_qps) worst = std::min(worst, v);
    os << "- .nl " << site.anonymized_label
       << " dropped to " << static_cast<int>(100.0 * worst + 0.5)
       << "% of its median query rate during the events.\n";
  }
  os << '\n';
}

void write_letter_flips(const EvaluationReport& report, std::ostream& os) {
  const auto evidence =
      analysis::letter_flip_evidence(report.result, 'L');
  if (evidence.quiet_qps <= 0.0) return;
  os << "## Letter flips\n\n";
  std::ostringstream line;
  line.precision(2);
  line << std::fixed << "L-Root (not attacked) served " << evidence.event2_ratio
       << "x its quiet rate during the second event as resolvers failed "
          "over from attacked letters.\n";
  os << line.str() << '\n';
}

}  // namespace

void write_markdown_report(const EvaluationReport& report,
                           const ReportOptions& options, std::ostream& os) {
  write_header(report, options, os);
  write_highlights(report, os);
  write_letter_table(report, os);
  write_dnsmon(report, os);
  write_collateral(report, os);
  write_letter_flips(report, os);
}

std::string markdown_report(const EvaluationReport& report,
                            const ReportOptions& options) {
  std::ostringstream os;
  write_markdown_report(report, options, os);
  return os.str();
}

namespace {

const char* metric_kind_name(obs::MetricKind kind) {
  switch (kind) {
    case obs::MetricKind::kCounter: return "counter";
    case obs::MetricKind::kGauge: return "gauge";
    case obs::MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

obs::JsonValue metric_to_json(const obs::MetricSample& sample) {
  auto m = obs::JsonValue::object();
  m.set("name", sample.name);
  auto labels = obs::JsonValue::object();
  for (const auto& [key, value] : sample.labels) labels.set(key, value);
  m.set("labels", std::move(labels));
  m.set("kind", metric_kind_name(sample.kind));
  m.set("value", sample.value);
  if (sample.kind == obs::MetricKind::kHistogram) {
    m.set("bin_width", sample.bin_width);
    auto bins = obs::JsonValue::array();
    for (const std::uint64_t count : sample.bins) bins.push_back(count);
    m.set("bins", std::move(bins));
  }
  return m;
}

obs::JsonValue phase_to_json(const obs::PhaseStats& phase) {
  auto p = obs::JsonValue::object();
  p.set("name", phase.name);
  p.set("calls", phase.calls);
  p.set("total_ms", static_cast<double>(phase.total_ns) / 1e6);
  p.set("self_ms", static_cast<double>(phase.self_ns) / 1e6);
  p.set("alloc_bytes", phase.alloc_bytes);
  p.set("allocs", phase.allocs);
  p.set("depth", phase.depth);
  return p;
}

}  // namespace

void write_telemetry(const obs::Snapshot& snapshot, std::ostream& os) {
  auto doc = obs::JsonValue::object();
  doc.set("sim_time_ms", snapshot.sim_time.ms);
  doc.set("sim_time", snapshot.sim_time.to_string());

  auto metrics = obs::JsonValue::array();
  for (const auto& sample : snapshot.metrics) {
    metrics.push_back(metric_to_json(sample));
  }
  doc.set("metrics", std::move(metrics));

  auto phases = obs::JsonValue::array();
  for (const auto& phase : snapshot.phases) {
    phases.push_back(phase_to_json(phase));
  }
  doc.set("phases", std::move(phases));

  auto trace = obs::JsonValue::object();
  trace.set("emitted", snapshot.trace.emitted);
  trace.set("dropped", snapshot.trace.dropped);
  trace.set("capacity", snapshot.trace.capacity);
  trace.set("buffered", snapshot.trace.buffered);
  doc.set("trace", std::move(trace));

  doc.set("profiler_slices_dropped",
          static_cast<std::uint64_t>(snapshot.slices_dropped));

  // Flight-recorder timeline; an empty object's bins == 0 marks "no
  // recorder attached" (e.g. telemetry off or a pre-timeline snapshot).
  doc.set("timeline", snapshot.timeline.to_json());

  os << doc.dump() << '\n';
}

std::string telemetry_json(const obs::Snapshot& snapshot) {
  std::ostringstream os;
  write_telemetry(snapshot, os);
  return os.str();
}

}  // namespace rootstress::core
