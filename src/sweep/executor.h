// The campaign executor API: how a batch of cache-missed cells actually
// gets run.
//
// run_campaign is executor-agnostic. It expands the campaign, probes the
// cache, resolves the worker/lane budget, then hands an ExecutionContext
// to an Executor:
//
//   - InProcessExecutor: the classic path — cells fan out on a
//     util::ThreadPool inside this process.
//   - SubprocessExecutor (sweep/fabric/): a coordinator leases cells to
//     forked worker processes over a socketpair line protocol, with the
//     content-addressed RunCache directory as the shared result store,
//     heartbeat-based liveness, crash re-lease, and work-stealing of
//     stragglers.
//
// Determinism contract: every cell's ScenarioConfig is fully resolved
// before dispatch and the engine is bit-identical at any thread count,
// so per-cell RunSummary digests are identical whichever executor ran
// them and however many workers it used (the executor test suite
// enforces in-process == subprocess at 1 and N workers, including with a
// worker killed mid-campaign).
//
// All progress accounting funnels through one CompletionBoard so sink
// callbacks and counters behave identically across executors: counters
// are monotone, callbacks fire under one lock in completion order, and
// nothing an observer does can change results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sweep/campaign.h"
#include "sweep/progress.h"
#include "sweep/summary.h"

namespace rootstress::sweep {

class RunCache;  // sweep/cache.h

/// Which executor runs the cache-missed cells.
enum class ExecutorMode : std::uint8_t {
  kInProcess,   ///< util::ThreadPool in this process (the classic path)
  kSubprocess,  ///< forked worker processes over the fabric protocol
};

std::string to_string(ExecutorMode mode);

/// One place for every threading/fabric knob. CampaignOptions embeds one
/// of these.
struct ExecutorConfig {
  ExecutorMode mode = ExecutorMode::kInProcess;
  /// Concurrent cell workers (threads in-process, processes under the
  /// fabric). <= 0 = auto (ROOTSTRESS_THREADS, else hardware), capped at
  /// the number of cells to run.
  int workers = 0;
  /// Total worker lanes shared by outer x inner parallelism. <= 0 = auto
  /// (same resolution as `workers`). Each worker gets
  /// util::lanes_per_worker(lane_budget, workers) engine threads.
  int lane_budget = 0;
  /// Fabric fault injection (tests/bench only): worker ordinal 0 exits
  /// hard after accepting this many leases, exercising crash re-lease.
  /// < 0 disables.
  int fail_worker_after = -1;
};

/// One executed (or cache-served) cell.
struct CellOutcome {
  std::size_t index = 0;
  std::vector<std::size_t> coords;
  std::string label;
  std::uint64_t key = 0;       ///< salted config hash (cache key)
  bool from_cache = false;
  double wall_ms = 0.0;        ///< 0 for cache hits
  bool straggler = false;      ///< wall time >> the campaign's EMA
  /// Who produced this cell: "cache" (probe hit), "inproc", or
  /// "worker-K" (fabric worker ordinal). Observational only — never part
  /// of RunSummary, so digests stay executor-agnostic.
  std::string executed_by;
  /// Flight-recorder digest of the cell's run (obs::TimelineData::digest)
  /// plus series/span counts. 0 / 0 / 0 for cache hits and cells that ran
  /// with telemetry off — the digest is observational and deliberately
  /// NOT part of RunSummary, so summaries (and cache entries) stay
  /// bit-identical whether or not the recorder ran.
  std::uint64_t timeline_digest = 0;
  std::size_t timeline_series = 0;
  std::size_t timeline_spans = 0;
  RunSummary summary;
};

/// A finished cell whose wall time exceeds this multiple of the EMA of
/// completed cells is flagged a straggler (CellOutcome::straggler and the
/// sink's CellProgress).
inline constexpr double kStragglerFactor = 3.0;

/// Shared progress/straggler accounting: counters, the wall-time EMA and
/// ETA, and the sink/progress callbacks, all under one lock so every
/// executor reports identically. Monotonicity invariants (done never
/// decreases, done + running never exceeds the cells to run, the hit
/// rate is a constant in [0, 1]) hold at every callback.
class CompletionBoard {
 public:
  using ProgressFn =
      std::function<void(const std::string& label, bool cached,
                         double wall_ms)>;

  CompletionBoard(std::size_t total, std::size_t cached, int workers,
                  ProgressSink* sink, ProgressFn progress);

  void campaign_started();
  /// A cell began executing (first lease under the fabric, task entry
  /// in-process). Re-leases of the same cell must not re-report.
  void cell_started(const CellOutcome& outcome);
  /// A cell finished executing: stamps `outcome.straggler`, folds the
  /// wall time into the EMA, updates counters/ETA, fires callbacks.
  void cell_finished(CellOutcome& outcome);
  void campaign_finished();

  double ema_cell_ms() const;
  ProgressSnapshot snapshot() const;

 private:
  void stamp_elapsed_locked();

  mutable std::mutex mutex_;
  ProgressSnapshot progress_;
  const int workers_;
  ProgressSink* const sink_;
  const ProgressFn progress_fn_;
  const std::chrono::steady_clock::time_point begin_;
};

/// Everything an Executor needs to run the missed cells. Pointers are
/// borrowed from run_campaign and outlive execute(); `cache` and the obs
/// instruments may be null.
struct ExecutionContext {
  const std::vector<CampaignCell>* cells = nullptr;  ///< all expanded cells
  const std::vector<std::size_t>* to_run = nullptr;  ///< indices to execute
  std::vector<CellOutcome>* outcomes = nullptr;      ///< parallel to cells
  RunCache* cache = nullptr;                         ///< shared result store
  int workers = 1;      ///< resolved outer workers
  int inner_lanes = 1;  ///< engine threads per worker
  CompletionBoard* board = nullptr;
  obs::Counter* executed_counter = nullptr;
  obs::Histogram* wall_hist = nullptr;
};

/// Runs a batch of cells. Implementations must fill, for every index in
/// `to_run`: summary (config_hash stamped with the cell key), wall_ms,
/// executed_by, and the timeline digest when the cell recorded one —
/// and drive the board exactly once per cell.
class Executor {
 public:
  virtual ~Executor() = default;
  /// Short tag for CampaignResult::executor ("inproc", "subprocess").
  virtual std::string name() const = 0;
  virtual void execute(const ExecutionContext& context) = 0;
};

/// Builds the executor `config.mode` names.
std::unique_ptr<Executor> make_executor(const ExecutorConfig& config);

}  // namespace rootstress::sweep
