// Incident-report writer: renders an EvaluationReport as Markdown.
//
// Turns one evaluated scenario into the kind of post-incident writeup
// the root operators published after the events ([49] in the paper):
// summary, per-letter damage table, case-study callouts, collateral
// findings.
#pragma once

#include <iosfwd>
#include <string>

#include "core/evaluation.h"
#include "obs/runtime.h"

namespace rootstress::core {

/// Options for the writer.
struct ReportOptions {
  std::string title = "Root DNS event replay";
};

/// Writes the Markdown report to `os`.
void write_markdown_report(const EvaluationReport& report,
                           const ReportOptions& options, std::ostream& os);

/// Convenience: returns the report as a string.
std::string markdown_report(const EvaluationReport& report,
                            const ReportOptions& options = {});

/// Writes a run's telemetry snapshot as a single JSON document:
/// {"sim_time_ms", "metrics": [...], "phases": [...], "trace": {...}}.
/// Round-trips through obs::json_parse (the test suite checks this).
void write_telemetry(const obs::Snapshot& snapshot, std::ostream& os);

/// Convenience: the telemetry document as a string.
std::string telemetry_json(const obs::Snapshot& snapshot);

}  // namespace rootstress::core
