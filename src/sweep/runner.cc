#include "sweep/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "obs/exporters.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace rootstress::sweep {

std::string to_string(CellMetric metric) {
  switch (metric) {
    case CellMetric::kMeanServedAttacked: return "mean_served_attacked";
    case CellMetric::kWorstLetterLoss: return "worst_letter_loss";
    case CellMetric::kRouteChanges: return "route_changes";
    case CellMetric::kRecords: return "records";
    case CellMetric::kRssacDay0Queries: return "rssac_day0_queries";
    case CellMetric::kPlaybookActivations: return "playbook_activations";
    case CellMetric::kTimeToMitigationMs: return "time_to_mitigation_ms";
    case CellMetric::kWorstBinAnswered: return "worst_bin_answered";
    case CellMetric::kRecoveryMs: return "recovery_ms";
    case CellMetric::kFalseActivations: return "playbook_false_activations";
    case CellMetric::kEnduserSuccessRate: return "enduser_success_rate";
  }
  return "?";
}

double metric_value(const RunSummary& summary, CellMetric metric) {
  switch (metric) {
    case CellMetric::kMeanServedAttacked: return summary.mean_served_attacked;
    case CellMetric::kWorstLetterLoss: return summary.worst_letter_loss;
    case CellMetric::kRouteChanges:
      return static_cast<double>(summary.route_changes);
    case CellMetric::kRecords:
      return static_cast<double>(summary.record_count);
    case CellMetric::kRssacDay0Queries: return summary.rssac_day0_queries;
    case CellMetric::kPlaybookActivations:
      return static_cast<double>(summary.playbook_activations);
    case CellMetric::kTimeToMitigationMs:
      return static_cast<double>(summary.time_to_mitigation_ms);
    case CellMetric::kWorstBinAnswered: return summary.worst_bin_answered;
    case CellMetric::kRecoveryMs:
      return static_cast<double>(summary.recovery_ms);
    case CellMetric::kFalseActivations:
      return static_cast<double>(summary.playbook_false_activations);
    case CellMetric::kEnduserSuccessRate: return summary.enduser_success_rate;
  }
  return 0.0;
}

const CellOutcome* CampaignResult::cell_at(
    const std::vector<std::size_t>& coords) const {
  if (coords.size() != axis_labels.size()) return nullptr;
  std::size_t index = 0;
  for (std::size_t a = 0; a < coords.size(); ++a) {
    if (coords[a] >= axis_labels[a].size()) return nullptr;
    index = index * axis_labels[a].size() + coords[a];
  }
  return index < cells.size() ? &cells[index] : nullptr;
}

util::TextTable CampaignResult::table(std::size_t row_axis,
                                      std::size_t col_axis,
                                      CellMetric metric) const {
  if (row_axis >= axis_labels.size() || col_axis >= axis_labels.size() ||
      row_axis == col_axis) {
    throw std::invalid_argument("CampaignResult::table: bad axis pair");
  }
  std::vector<std::string> headers;
  headers.push_back(to_string(axis_kinds[row_axis]) + " \\ " +
                    to_string(axis_kinds[col_axis]));
  for (const auto& label : axis_labels[col_axis]) headers.push_back(label);
  util::TextTable table(std::move(headers));

  const std::size_t rows = axis_labels[row_axis].size();
  const std::size_t cols = axis_labels[col_axis].size();
  for (std::size_t r = 0; r < rows; ++r) {
    table.begin_row();
    table.cell(axis_labels[row_axis][r]);
    for (std::size_t c = 0; c < cols; ++c) {
      // Average the metric over every cell matching (r, c) on the two
      // displayed axes — the remaining axes (e.g. replicate seeds)
      // collapse into the mean.
      double total = 0.0;
      std::size_t count = 0;
      for (const auto& cell : cells) {
        if (cell.coords[row_axis] != r || cell.coords[col_axis] != c) {
          continue;
        }
        total += metric_value(cell.summary, metric);
        ++count;
      }
      table.cell(count == 0 ? 0.0 : total / static_cast<double>(count), 4);
    }
  }
  return table;
}

obs::JsonValue CampaignResult::to_json() const {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("campaign", obs::JsonValue(name));
  obs::JsonValue axes = obs::JsonValue::array();
  for (std::size_t a = 0; a < axis_kinds.size(); ++a) {
    obs::JsonValue axis = obs::JsonValue::object();
    axis.set("kind", obs::JsonValue(sweep::to_string(axis_kinds[a])));
    obs::JsonValue labels = obs::JsonValue::array();
    for (const auto& label : axis_labels[a]) {
      labels.push_back(obs::JsonValue(label));
    }
    axis.set("labels", std::move(labels));
    axes.push_back(std::move(axis));
  }
  doc.set("axes", std::move(axes));
  doc.set("executed", obs::JsonValue(static_cast<std::uint64_t>(executed)));
  doc.set("cache_hits",
          obs::JsonValue(static_cast<std::uint64_t>(cache_hits)));
  doc.set("wall_ms", obs::JsonValue(wall_ms));
  doc.set("executor", obs::JsonValue(executor));
  doc.set("workers", obs::JsonValue(workers));
  doc.set("inner_lanes", obs::JsonValue(inner_lanes));
  doc.set("ema_cell_ms", obs::JsonValue(ema_cell_ms));
  obs::JsonValue cache_doc = obs::JsonValue::object();
  cache_doc.set("hits", obs::JsonValue(cache_stats.hits));
  cache_doc.set("misses", obs::JsonValue(cache_stats.misses));
  cache_doc.set("stores", obs::JsonValue(cache_stats.stores));
  cache_doc.set("invalid", obs::JsonValue(cache_stats.invalid));
  doc.set("cache", std::move(cache_doc));
  obs::JsonValue cell_docs = obs::JsonValue::array();
  for (const auto& cell : cells) {
    obs::JsonValue c = obs::JsonValue::object();
    c.set("label", obs::JsonValue(cell.label));
    obs::JsonValue coords = obs::JsonValue::array();
    for (const std::size_t coord : cell.coords) {
      coords.push_back(obs::JsonValue(static_cast<std::uint64_t>(coord)));
    }
    c.set("coords", std::move(coords));
    char key_hex[24];
    std::snprintf(key_hex, sizeof(key_hex), "%016llx",
                  static_cast<unsigned long long>(cell.key));
    c.set("key", obs::JsonValue(key_hex));
    c.set("from_cache", obs::JsonValue(cell.from_cache));
    c.set("wall_ms", obs::JsonValue(cell.wall_ms));
    c.set("straggler", obs::JsonValue(cell.straggler));
    if (!cell.executed_by.empty()) {
      c.set("executed_by", obs::JsonValue(cell.executed_by));
    }
    if (cell.timeline_digest != 0) {
      char digest_hex[24];
      std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                    static_cast<unsigned long long>(cell.timeline_digest));
      c.set("timeline_digest", obs::JsonValue(digest_hex));
      c.set("timeline_series", obs::JsonValue(
                                   static_cast<std::uint64_t>(
                                       cell.timeline_series)));
      c.set("timeline_spans", obs::JsonValue(static_cast<std::uint64_t>(
                                  cell.timeline_spans)));
    }
    c.set("summary", summary_to_json(cell.summary));
    cell_docs.push_back(std::move(c));
  }
  doc.set("cells", std::move(cell_docs));
  return doc;
}

CampaignResult run_campaign(const Campaign& campaign,
                            const CampaignOptions& options) {
  const auto campaign_begin = std::chrono::steady_clock::now();
  std::unique_ptr<obs::Runtime> obs_runtime;
  if (options.telemetry) obs_runtime = std::make_unique<obs::Runtime>();
  obs::Runtime* obs = obs_runtime.get();
  obs::PhaseProfiler* profiler = obs ? &obs->profiler() : nullptr;

  CampaignResult result;
  result.name = campaign.name;
  for (const Axis& axis : campaign.axes) {
    result.axis_kinds.push_back(axis.kind);
    std::vector<std::string> labels;
    for (std::size_t i = 0; i < axis.size(); ++i) {
      labels.push_back(axis.label(i));
    }
    result.axis_labels.push_back(std::move(labels));
  }

  // Expand and validate everything before running anything: a campaign
  // either starts fully or not at all.
  std::vector<CampaignCell> cells;
  {
    obs::PhaseProfiler::Scope scope(profiler, "expand");
    cells = expand(campaign);
    for (const CampaignCell& cell : cells) {
      if (std::string problem = sim::validate(cell.config);
          !problem.empty()) {
        throw std::invalid_argument("campaign cell '" + cell.label +
                                    "': " + problem);
      }
    }
  }

  std::unique_ptr<RunCache> cache;
  if (!options.cache_dir.empty()) {
    cache = std::make_unique<RunCache>(options.cache_dir, options.cache_salt);
  }

  result.cells.resize(cells.size());
  std::vector<std::size_t> to_run;  // indices of cache misses
  {
    obs::PhaseProfiler::Scope scope(profiler, "cache-probe");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      CellOutcome& outcome = result.cells[i];
      outcome.index = cells[i].index;
      outcome.coords = cells[i].coords;
      outcome.label = cells[i].label;
      outcome.key = cache ? cache->key(cells[i].config)
                          : config_hash(cells[i].config, options.cache_salt);
      if (cache) {
        if (auto cached = cache->load(outcome.key); cached.has_value()) {
          outcome.summary = std::move(*cached);
          outcome.from_cache = true;
          outcome.executed_by = "cache";
          ++result.cache_hits;
          continue;
        }
      }
      to_run.push_back(i);
    }
  }

  // Compose outer cell workers with inner engine lanes under one budget,
  // then build the executor the options name.
  ExecutorConfig exec_config = options.executor;
  const int lane_budget = util::resolve_thread_count(exec_config.lane_budget);
  int workers = util::resolve_thread_count(exec_config.workers);
  workers = std::min(
      workers, static_cast<int>(std::max<std::size_t>(to_run.size(), 1)));
  const int inner_lanes = util::lanes_per_worker(lane_budget, workers);
  exec_config.workers = workers;
  exec_config.lane_budget = lane_budget;
  const std::unique_ptr<Executor> executor = make_executor(exec_config);
  result.executor = executor->name();
  result.workers = workers;
  result.inner_lanes = inner_lanes;

  obs::Counter* executed_counter = nullptr;
  obs::Histogram* wall_hist = nullptr;
  if (obs) {
    obs->metrics().gauge("sweep.cells_total", {}).set(
        static_cast<double>(cells.size()));
    obs->metrics().gauge("sweep.cache_hits", {}).set(
        static_cast<double>(result.cache_hits));
    obs->metrics().gauge("sweep.outer_workers", {}).set(workers);
    obs->metrics().gauge("sweep.inner_lanes", {}).set(inner_lanes);
    executed_counter = &obs->metrics().counter("sweep.cells_executed", {});
    wall_hist = &obs->metrics().histogram("sweep.cell_wall_ms", {},
                                          /*bin_width=*/1000.0,
                                          /*bin_count=*/64);
  }

  // One board for all executors: counters + EMA/ETA + sink callbacks
  // under one lock. Display only — nothing reads it back into cells.
  CompletionBoard board(cells.size(), result.cache_hits, workers,
                        options.progress_sink, options.progress);
  if (options.progress_sink != nullptr) board.campaign_started();

  {
    obs::PhaseProfiler::Scope scope(profiler, "execute");
    ExecutionContext context;
    context.cells = &cells;
    context.to_run = &to_run;
    context.outcomes = &result.cells;
    context.cache = cache.get();
    context.workers = workers;
    context.inner_lanes = inner_lanes;
    context.board = &board;
    context.executed_counter = executed_counter;
    context.wall_hist = wall_hist;
    executor->execute(context);
  }
  result.executed = to_run.size();
  result.ema_cell_ms = board.ema_cell_ms();
  if (options.progress_sink != nullptr) board.campaign_finished();
  if (options.progress) {
    for (const CellOutcome& outcome : result.cells) {
      if (outcome.from_cache) {
        options.progress(outcome.label, /*cached=*/true, 0.0);
      }
    }
  }

  {
    obs::PhaseProfiler::Scope scope(profiler, "aggregate");
    // Cache hits carry the summary's stored hash; recompute nothing —
    // just stamp hashes on cached cells that predate the field.
    for (CellOutcome& outcome : result.cells) {
      if (outcome.summary.config_hash == 0) {
        outcome.summary.config_hash = outcome.key;
      }
    }
  }

  if (cache) result.cache_stats = cache->stats();
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - campaign_begin)
                       .count();
  if (obs) {
    obs->metrics().gauge("sweep.wall_ms", {}).set(result.wall_ms);
    result.telemetry = obs->snapshot(net::SimTime(0));
    // Campaign-level Prometheus exposition — same knob the engine honors,
    // written atomically so a concurrent engine write never interleaves.
    if (const char* prom = std::getenv("ROOTSTRESS_PROM");
        prom != nullptr && *prom != '\0') {
      if (obs::write_text_file(prom,
                               obs::prometheus_text(
                                   result.telemetry.metrics))) {
        RS_LOG_INFO << "campaign metrics -> " << prom;
      } else {
        RS_LOG_ERROR << "failed to write campaign metrics to " << prom;
      }
    }
  }
  RS_LOG_INFO << "campaign '" << result.name << "': " << cells.size()
              << " cells, " << result.executed << " executed, "
              << result.cache_hits << " cached, " << result.executor << " "
              << workers << "x" << inner_lanes << " lanes";
  return result;
}

}  // namespace rootstress::sweep
