// End-to-end campaign execution: the acceptance contract is that a
// multi-axis campaign's per-cell results are bit-identical to standalone
// runs of each expanded config, at any outer worker count, and that a
// warm cache serves every cell without touching the engine.
#include "sweep/runner.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "rootstress.h"

namespace rootstress::sweep {
namespace {

namespace fs = std::filesystem;

/// 2 x 2 x 3 = 12 cells; fluid-only on a small topology so the whole
/// grid runs in seconds. The 10h span covers event 1 (06:50-09:30).
Campaign test_campaign() {
  Campaign campaign;
  campaign.name = "runner-test";
  campaign.base = sim::ScenarioBuilder::november_2015()
                      .fluid_only()
                      .topology_stubs(250)
                      .duration(net::SimTime::from_hours(10))
                      .build();
  campaign.add(Axis::attack_qps({1e6, 5e6}))
      .add(Axis::capacity_scale({0.75, 1.0}))
      .add(Axis::replicate_seeds({1, 2, 3}));
  return campaign;
}

CampaignOptions quiet_options() {
  CampaignOptions options;
  options.telemetry = false;
  return options;
}

fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

TEST(Runner, ResultsIndependentOfOuterWorkerCount) {
  const Campaign campaign = test_campaign();

  CampaignOptions serial = quiet_options();
  serial.executor.workers = 1;
  const CampaignResult a = run_campaign(campaign, serial);

  CampaignOptions parallel = quiet_options();
  parallel.executor.workers = 4;
  const CampaignResult b = run_campaign(campaign, parallel);

  ASSERT_EQ(a.cells.size(), 12u);
  ASSERT_EQ(b.cells.size(), 12u);
  EXPECT_EQ(a.executed, 12u);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].label, b.cells[i].label);
    EXPECT_EQ(a.cells[i].key, b.cells[i].key);
    // Bit-identical summaries (defaulted operator==, doubles included).
    EXPECT_TRUE(a.cells[i].summary == b.cells[i].summary)
        << "cell " << a.cells[i].label
        << " diverged between worker counts";
  }
}

TEST(Runner, CampaignCellsMatchStandaloneRuns) {
  const Campaign campaign = test_campaign();
  CampaignOptions options = quiet_options();
  options.executor.workers = 4;
  const CampaignResult result = run_campaign(campaign, options);

  // Spot-check three cells across the matrix (running all 12 standalone
  // would double the test's wall time for no extra coverage).
  const auto cells = expand(campaign);
  for (const std::size_t i : {std::size_t{0}, std::size_t{5},
                              std::size_t{11}}) {
    const core::EvaluationReport report = rootstress::run(cells[i].config);
    RunSummary standalone = summarize(cells[i].config, report);
    // The runner stamps the salted cache key; align before comparing.
    standalone.config_hash = result.cells[i].key;
    EXPECT_TRUE(standalone == result.cells[i].summary)
        << "cell " << cells[i].label << " != standalone run";
  }
}

TEST(Runner, WarmCacheExecutesZeroEngineRuns) {
  const Campaign campaign = test_campaign();
  CampaignOptions options = quiet_options();
  options.cache_dir = fresh_dir("rs_runner_cache");

  const CampaignResult cold = run_campaign(campaign, options);
  EXPECT_EQ(cold.executed, 12u);
  EXPECT_EQ(cold.cache_hits, 0u);

  const CampaignResult warm = run_campaign(campaign, options);
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_EQ(warm.cache_hits, 12u);
  ASSERT_EQ(warm.cells.size(), cold.cells.size());
  for (std::size_t i = 0; i < cold.cells.size(); ++i) {
    EXPECT_TRUE(warm.cells[i].from_cache);
    EXPECT_TRUE(warm.cells[i].summary == cold.cells[i].summary)
        << "cached summary for " << cold.cells[i].label
        << " not bit-identical";
  }
}

TEST(Runner, SaltChangeReRunsEveryCell) {
  Campaign campaign = test_campaign();
  // One axis is plenty: this is about the cache, not the grid.
  campaign.axes.resize(1);
  CampaignOptions options = quiet_options();
  options.cache_dir = fresh_dir("rs_runner_salt");

  const CampaignResult cold = run_campaign(campaign, options);
  EXPECT_EQ(cold.executed, 2u);

  options.cache_salt = "changed-sim-semantics";
  const CampaignResult invalidated = run_campaign(campaign, options);
  EXPECT_EQ(invalidated.executed, 2u);
  EXPECT_EQ(invalidated.cache_hits, 0u);
}

TEST(Runner, CellAtAndTableProjectTheMatrix) {
  const Campaign campaign = test_campaign();
  CampaignOptions options = quiet_options();
  const CampaignResult result = run_campaign(campaign, options);

  const CellOutcome* cell = result.cell_at({1, 0, 2});
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->label, "qps=5e+06/cap=0.75x/seed=3");
  EXPECT_EQ(result.cell_at({2, 0, 0}), nullptr);  // out of range
  EXPECT_EQ(result.cell_at({0, 0}), nullptr);     // wrong rank

  // qps rows x capacity columns, seeds averaged out.
  const util::TextTable table =
      result.table(0, 1, CellMetric::kMeanServedAttacked);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_THROW(result.table(0, 0, CellMetric::kRecords),
               std::invalid_argument);
}

TEST(Runner, HigherAttackRateServesFewerClients) {
  // Sanity on the physics, not just the plumbing: within a capacity
  // level, the 5 Mq/s cells must serve no more than the 1 Mq/s cells.
  const Campaign campaign = test_campaign();
  const CampaignResult result = run_campaign(campaign, quiet_options());
  for (std::size_t cap = 0; cap < 2; ++cap) {
    for (std::size_t seed = 0; seed < 3; ++seed) {
      const CellOutcome* low = result.cell_at({0, cap, seed});
      const CellOutcome* high = result.cell_at({1, cap, seed});
      ASSERT_NE(low, nullptr);
      ASSERT_NE(high, nullptr);
      EXPECT_LE(high->summary.mean_served_attacked,
                low->summary.mean_served_attacked + 1e-9);
    }
  }
}

TEST(Runner, InvalidCellFailsBeforeAnythingRuns) {
  Campaign campaign = test_campaign();
  campaign.base.step = net::SimTime(0);
  EXPECT_THROW(run_campaign(campaign, quiet_options()),
               std::invalid_argument);
}

TEST(Runner, ToJsonCarriesAxesAndCells) {
  Campaign campaign = test_campaign();
  campaign.axes.resize(1);  // 2 cells is enough for shape checks
  campaign.base.telemetry = false;  // cells run without the flight recorder
  const CampaignResult result = run_campaign(campaign, quiet_options());
  const obs::JsonValue doc = result.to_json();
  ASSERT_NE(doc.find("axes"), nullptr);
  EXPECT_EQ(doc.find("axes")->size(), 1u);
  ASSERT_NE(doc.find("cells"), nullptr);
  EXPECT_EQ(doc.find("cells")->size(), 2u);
  EXPECT_EQ(doc.find("executed")->as_number(), 2.0);
  ASSERT_NE(doc.find("workers"), nullptr);
  EXPECT_GE(doc.find("workers")->as_number(), 1.0);
  ASSERT_NE(doc.find("ema_cell_ms"), nullptr);
  // Telemetry was off, so cells carry no timeline digest — and the JSON
  // omits the field rather than writing zeros.
  const obs::JsonValue& cell0 = (*doc.find("cells"))[0];
  ASSERT_NE(cell0.find("straggler"), nullptr);
  EXPECT_EQ(cell0.find("timeline_digest"), nullptr);
}

/// Records every sink callback for assertions.
class RecordingSink : public ProgressSink {
 public:
  void campaign_started(const ProgressSnapshot& snapshot) override {
    started = snapshot;
    ++started_calls;
  }
  void cell_started(const CellProgress& cell,
                    const ProgressSnapshot& snapshot) override {
    (void)cell;
    (void)snapshot;
    ++cell_started_calls;
  }
  void cell_finished(const CellProgress& cell,
                     const ProgressSnapshot& snapshot) override {
    finished_labels.push_back(cell.label);
    last = snapshot;
    ++cell_finished_calls;
  }
  void campaign_finished(const ProgressSnapshot& snapshot) override {
    final = snapshot;
    ++finished_calls;
  }

  ProgressSnapshot started, last, final;
  std::vector<std::string> finished_labels;
  int started_calls = 0, cell_started_calls = 0, cell_finished_calls = 0,
      finished_calls = 0;
};

TEST(Runner, ProgressSinkSeesEveryExecutedCell) {
  Campaign campaign = test_campaign();
  campaign.axes.resize(2);  // 2 x 2 = 4 cells
  RecordingSink sink;
  CampaignOptions options = quiet_options();
  options.executor.workers = 2;
  options.progress_sink = &sink;
  const CampaignResult result = run_campaign(campaign, options);

  EXPECT_EQ(sink.started_calls, 1);
  EXPECT_EQ(sink.finished_calls, 1);
  EXPECT_EQ(sink.cell_started_calls, 4);
  EXPECT_EQ(sink.cell_finished_calls, 4);
  EXPECT_EQ(sink.started.total, 4u);
  EXPECT_EQ(sink.started.cached, 0u);
  EXPECT_EQ(sink.final.done, 4u);
  EXPECT_EQ(sink.final.running, 0u);
  EXPECT_GT(sink.final.ema_cell_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.ema_cell_ms, sink.final.ema_cell_ms);

  // Every executed cell reported exactly once (order is scheduling-
  // dependent, identity is not).
  std::set<std::string> reported(sink.finished_labels.begin(),
                                 sink.finished_labels.end());
  EXPECT_EQ(reported.size(), 4u);
  for (const CellOutcome& cell : result.cells) {
    EXPECT_TRUE(reported.count(cell.label)) << cell.label;
  }
}

TEST(Runner, ProgressSinkReportsCacheHitsWithoutCellEvents) {
  Campaign campaign = test_campaign();
  campaign.axes.resize(1);  // 2 cells
  CampaignOptions options = quiet_options();
  options.cache_dir = fresh_dir("rs_runner_progress_cache");
  (void)run_campaign(campaign, options);  // cold pass fills the cache

  RecordingSink sink;
  options.progress_sink = &sink;
  const CampaignResult warm = run_campaign(campaign, options);
  EXPECT_EQ(warm.cache_hits, 2u);
  EXPECT_EQ(sink.started.cached, 2u);
  EXPECT_DOUBLE_EQ(sink.started.cache_hit_rate, 1.0);
  // Cached cells never start or finish through the sink.
  EXPECT_EQ(sink.cell_started_calls, 0);
  EXPECT_EQ(sink.cell_finished_calls, 0);
  EXPECT_EQ(sink.finished_calls, 1);
}

TEST(Runner, TelemetryCellsCarryTimelineDigests) {
  Campaign campaign = test_campaign();
  campaign.axes.resize(1);  // 2 cells
  CampaignOptions options;   // telemetry on: cells run the flight recorder
  options.telemetry = true;
  const CampaignResult result = run_campaign(campaign, options);
  ASSERT_EQ(result.cells.size(), 2u);
  for (const CellOutcome& cell : result.cells) {
    EXPECT_NE(cell.timeline_digest, 0u) << cell.label;
    EXPECT_GT(cell.timeline_series, 0u) << cell.label;
  }
  // Different attack rates record different timelines.
  EXPECT_NE(result.cells[0].timeline_digest, result.cells[1].timeline_digest);

  const obs::JsonValue doc = result.to_json();
  const obs::JsonValue& cell0 = (*doc.find("cells"))[0];
  ASSERT_NE(cell0.find("timeline_digest"), nullptr);
  EXPECT_GT(cell0.find("timeline_series")->as_number(), 0.0);
}

}  // namespace
}  // namespace rootstress::sweep
