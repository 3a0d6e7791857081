#include "sweep/executor.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/evaluation.h"
#include "sweep/cache.h"
#include "sweep/fabric/coordinator.h"
#include "util/parallel.h"

namespace rootstress::sweep {

std::string to_string(ExecutorMode mode) {
  switch (mode) {
    case ExecutorMode::kInProcess: return "inproc";
    case ExecutorMode::kSubprocess: return "subprocess";
  }
  return "?";
}

CompletionBoard::CompletionBoard(std::size_t total, std::size_t cached,
                                 int workers, ProgressSink* sink,
                                 ProgressFn progress)
    : workers_(std::max(workers, 1)),
      sink_(sink),
      progress_fn_(std::move(progress)),
      begin_(std::chrono::steady_clock::now()) {
  progress_.total = total;
  progress_.cached = cached;
  progress_.cache_hit_rate =
      total == 0 ? 0.0
                 : static_cast<double>(cached) / static_cast<double>(total);
}

void CompletionBoard::stamp_elapsed_locked() {
  progress_.elapsed_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - begin_)
                             .count();
}

void CompletionBoard::campaign_started() {
  const std::scoped_lock lock(mutex_);
  stamp_elapsed_locked();
  if (sink_ != nullptr) sink_->campaign_started(progress_);
}

void CompletionBoard::cell_started(const CellOutcome& outcome) {
  const std::scoped_lock lock(mutex_);
  ++progress_.running;
  stamp_elapsed_locked();
  if (sink_ != nullptr) {
    CellProgress cp;
    cp.index = outcome.index;
    cp.label = outcome.label;
    sink_->cell_started(cp, progress_);
  }
}

void CompletionBoard::cell_finished(CellOutcome& outcome) {
  const std::scoped_lock lock(mutex_);
  // EMA over completed cells (alpha 0.3; the first completion seeds it).
  // A cell well past the prior estimate is a straggler — flagged before
  // this sample drags the EMA up.
  outcome.straggler =
      progress_.done > 0 &&
      outcome.wall_ms > kStragglerFactor * progress_.ema_cell_ms;
  progress_.ema_cell_ms =
      progress_.done == 0
          ? outcome.wall_ms
          : 0.3 * outcome.wall_ms + 0.7 * progress_.ema_cell_ms;
  if (progress_.running > 0) --progress_.running;
  ++progress_.done;
  const std::size_t remaining =
      progress_.total - progress_.cached - progress_.done;
  progress_.eta_ms = progress_.ema_cell_ms * static_cast<double>(remaining) /
                     static_cast<double>(workers_);
  stamp_elapsed_locked();
  if (sink_ != nullptr) {
    CellProgress cp;
    cp.index = outcome.index;
    cp.label = outcome.label;
    cp.wall_ms = outcome.wall_ms;
    cp.straggler = outcome.straggler;
    cp.executed_by = outcome.executed_by;
    sink_->cell_finished(cp, progress_);
  }
  if (progress_fn_) {
    progress_fn_(outcome.label, /*cached=*/false, outcome.wall_ms);
  }
}

void CompletionBoard::campaign_finished() {
  const std::scoped_lock lock(mutex_);
  progress_.eta_ms = 0.0;
  stamp_elapsed_locked();
  if (sink_ != nullptr) sink_->campaign_finished(progress_);
}

double CompletionBoard::ema_cell_ms() const {
  const std::scoped_lock lock(mutex_);
  return progress_.ema_cell_ms;
}

ProgressSnapshot CompletionBoard::snapshot() const {
  const std::scoped_lock lock(mutex_);
  return progress_;
}

namespace {

/// The classic path: cells fan out on a util::ThreadPool inside this
/// process, each engine run getting its lane share of the budget.
class InProcessExecutor : public Executor {
 public:
  std::string name() const override { return "inproc"; }

  void execute(const ExecutionContext& ctx) override {
    util::ThreadPool pool(ctx.workers);
    pool.parallel_for(ctx.to_run->size(), [&](std::size_t task) {
      const std::size_t i = (*ctx.to_run)[task];
      CellOutcome& outcome = (*ctx.outcomes)[i];
      if (ctx.board != nullptr) ctx.board->cell_started(outcome);
      sim::ScenarioConfig config = (*ctx.cells)[i].config;
      // An explicit per-cell thread count wins; auto cells get their
      // budget share.
      if (config.threads <= 0) config.threads = ctx.inner_lanes;
      const auto begin = std::chrono::steady_clock::now();
      const core::EvaluationReport report = core::evaluate_scenario(config);
      // Summarize against the resolved config (not the thread-adjusted
      // copy's identity — summaries must match standalone runs).
      outcome.summary = summarize((*ctx.cells)[i].config, report);
      outcome.summary.config_hash = outcome.key;
      outcome.wall_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
      outcome.executed_by = name();
      // Flight-recorder digest: observational sidecar, never part of the
      // summary (cache entries stay recorder-agnostic).
      const obs::TimelineData& timeline = report.result.telemetry.timeline;
      if (!timeline.empty()) {
        outcome.timeline_digest = timeline.digest();
        outcome.timeline_series = timeline.series.size();
        outcome.timeline_spans = timeline.spans.size();
      }
      if (ctx.cache != nullptr) ctx.cache->store(outcome.key, outcome.summary);
      if (ctx.executed_counter != nullptr) ctx.executed_counter->add(1);
      if (ctx.wall_hist != nullptr) ctx.wall_hist->observe(outcome.wall_ms);
      if (ctx.board != nullptr) ctx.board->cell_finished(outcome);
    });
  }
};

}  // namespace

std::unique_ptr<Executor> make_executor(const ExecutorConfig& config) {
  switch (config.mode) {
    case ExecutorMode::kInProcess:
      return std::make_unique<InProcessExecutor>();
    case ExecutorMode::kSubprocess:
      return std::make_unique<fabric::SubprocessExecutor>(config);
  }
  throw std::invalid_argument("make_executor: unknown ExecutorMode");
}

}  // namespace rootstress::sweep
