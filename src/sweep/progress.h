// Live campaign progress: a sink interface run_campaign drives while
// cells execute, plus a stderr renderer for CLI use.
//
// Long sweeps (hundreds of cells, minutes each) were previously silent
// until the final CampaignResult; the observatory surfaces queued /
// running / done counts, the cache hit rate, per-cell wall times with
// straggler flagging, and an EMA-based ETA as the campaign runs.
//
// Everything here is display-only. The runner invokes the sink under its
// progress lock, in completion order — which varies with scheduling —
// and nothing in cell execution reads the sink, so campaign results stay
// bit-identical whether or not a sink is attached (the same write-only
// discipline as the rest of the telemetry surface).
#pragma once

#include <cstddef>
#include <string>

namespace rootstress::sweep {

/// Campaign-wide counters at one instant.
struct ProgressSnapshot {
  std::size_t total = 0;    ///< expanded cells
  std::size_t cached = 0;   ///< cells served from the cache at probe time
  std::size_t running = 0;  ///< cells currently executing
  std::size_t done = 0;     ///< executed cells completed (cached excluded)
  double cache_hit_rate = 0.0;  ///< cached / total
  double elapsed_ms = 0.0;      ///< since run_campaign entered execution
  /// EMA of executed-cell wall times (0 until the first completes).
  double ema_cell_ms = 0.0;
  /// Projected remaining wall time: remaining cells x EMA / workers.
  /// Negative until the first cell completes (no estimate yet).
  double eta_ms = -1.0;
};

/// One cell's start/finish notification.
struct CellProgress {
  std::size_t index = 0;  ///< row-major cell index
  std::string label;
  bool cached = false;
  double wall_ms = 0.0;  ///< 0 at start and for cached cells
  /// Flagged when this cell's wall time exceeded kStragglerFactor x the
  /// EMA at completion (sweep/executor.h).
  bool straggler = false;
  /// Who ran the cell ("inproc", "worker-K"); empty at cell_started —
  /// the executor is only known once a result lands.
  std::string executed_by;
};

/// Observer of one campaign execution. Default implementations are
/// no-ops so sinks override only what they render.
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;
  /// After expansion + cache probe, before any cell executes.
  virtual void campaign_started(const ProgressSnapshot& snapshot) {
    (void)snapshot;
  }
  virtual void cell_started(const CellProgress& cell,
                            const ProgressSnapshot& snapshot) {
    (void)cell;
    (void)snapshot;
  }
  virtual void cell_finished(const CellProgress& cell,
                             const ProgressSnapshot& snapshot) {
    (void)cell;
    (void)snapshot;
  }
  virtual void campaign_finished(const ProgressSnapshot& snapshot) {
    (void)snapshot;
  }
};

/// Renders progress to stderr, one line per completion:
///   [ 12/48] done=10 cached=2 hit=4% eta=01:23 wall=1842ms cell-label <- worker-1
/// Stragglers get a " [straggler]" suffix; the trailing "<- who" names
/// the executor/worker that produced the cell. Used by
/// examples/campaign_sweep --progress.
class StderrProgress : public ProgressSink {
 public:
  void campaign_started(const ProgressSnapshot& snapshot) override;
  void cell_finished(const CellProgress& cell,
                     const ProgressSnapshot& snapshot) override;
  void campaign_finished(const ProgressSnapshot& snapshot) override;
};

}  // namespace rootstress::sweep
