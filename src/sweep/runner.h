// Campaign execution: expand, probe the cache, run the misses through a
// pluggable Executor, aggregate.
//
// Concurrency model: cells run on an Executor (sweep/executor.h) —
// in-process on a util::ThreadPool, or across forked worker processes on
// the fabric (sweep/fabric/) — composed with each cell's inner engine
// parallelism through a shared lane budget: outer_workers * inner_threads
// <= lane_budget, so a campaign never oversubscribes the machine however
// the two knobs are set. Because the engine is bit-identical for any
// thread count and every cell's config is fully resolved before dispatch,
// per-cell results are independent of the executor choice and the worker
// count and identical to running each config standalone (the sweep and
// executor test suites enforce all three).
//
// Telemetry: the runner owns a campaign-level obs::Runtime — progress
// counters (cells executed / cached, per-cell wall histogram) plus
// coordinator-side phases (expand / cache-probe / execute / aggregate) —
// snapshotted onto CampaignResult::telemetry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "obs/runtime.h"
#include "sweep/cache.h"
#include "sweep/campaign.h"
#include "sweep/executor.h"
#include "sweep/progress.h"
#include "sweep/summary.h"
#include "util/table.h"

namespace rootstress::sweep {

/// Knobs for one campaign execution.
struct CampaignOptions {
  /// Executor selection and its threading/fabric knobs (workers, lanes,
  /// mode) — see sweep/executor.h. The single home for parallelism
  /// configuration.
  ExecutorConfig executor;
  /// Cache directory; empty disables caching (every cell executes).
  std::filesystem::path cache_dir;
  /// Cache salt; change to invalidate every cached summary.
  std::string cache_salt{kCodeVersionSalt};
  /// Campaign-level telemetry (cell engines additionally follow their
  /// own ScenarioConfig::telemetry).
  bool telemetry = true;
  /// Per-cell completion callback (label, cached?, wall ms). Invoked
  /// under a lock, in completion order — display only, results never
  /// depend on it.
  std::function<void(const std::string& label, bool cached, double wall_ms)>
      progress;
  /// Structured progress observer (see sweep/progress.h); nullptr
  /// disables. Like `progress`, invoked under a lock in completion order
  /// and never read by cell execution — attach-or-not cannot change
  /// results. Not owned; must outlive run_campaign.
  ProgressSink* progress_sink = nullptr;
};

/// The metric a comparison table projects out of each cell.
enum class CellMetric : std::uint8_t {
  kMeanServedAttacked,
  kWorstLetterLoss,
  kRouteChanges,
  kRecords,
  kRssacDay0Queries,
  kPlaybookActivations,
  kTimeToMitigationMs,
  kWorstBinAnswered,    ///< resilience: worst per-bin answered fraction
  kRecoveryMs,          ///< resilience: time to full service after last pulse
  kFalseActivations,    ///< resilience: playbook actions in quiet gaps
  kEnduserSuccessRate,  ///< resolver population: client resolution success
};

std::string to_string(CellMetric metric);
double metric_value(const RunSummary& summary, CellMetric metric);

/// Everything one campaign execution produced.
struct CampaignResult {
  std::string name;
  std::vector<AxisKind> axis_kinds;              ///< one per axis
  std::vector<std::vector<std::string>> axis_labels;  ///< per axis, per point
  std::vector<CellOutcome> cells;                ///< row-major, all cells
  std::size_t executed = 0;    ///< cells that ran through the executor
  std::size_t cache_hits = 0;  ///< cells served from the cache at probe
  double wall_ms = 0.0;        ///< whole-campaign wall clock
  std::string executor;        ///< which Executor ran the misses
  int workers = 0;             ///< resolved outer cell workers
  int inner_lanes = 0;         ///< resolved engine lanes per worker
  double ema_cell_ms = 0.0;    ///< EMA of executed-cell wall times
  CacheStats cache_stats;      ///< run-cache counters (zeros without one)
  obs::Snapshot telemetry;     ///< campaign-level metrics + phases

  /// Cell by per-axis coordinates; nullptr when out of range.
  const CellOutcome* cell_at(const std::vector<std::size_t>& coords) const;

  /// Paper-style comparison grid: rows = `row_axis` points, columns =
  /// `col_axis` points, cells = `metric` averaged over every remaining
  /// axis (replicate seeds average out naturally).
  util::TextTable table(std::size_t row_axis, std::size_t col_axis,
                        CellMetric metric) const;

  /// Full campaign as one JSON document (axes, per-cell summaries,
  /// cache statistics) for downstream plotting.
  obs::JsonValue to_json() const;
};

/// Expands and executes `campaign`. Throws std::invalid_argument when any
/// expanded cell fails sim::validate (before anything runs), and
/// std::runtime_error when the fabric loses every worker or a cell's
/// engine throws on a worker.
CampaignResult run_campaign(const Campaign& campaign,
                            const CampaignOptions& options = {});

}  // namespace rootstress::sweep
