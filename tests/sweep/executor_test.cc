// The executor API's acceptance contract: the subprocess fabric must
// produce per-cell RunSummary digests bit-identical to the in-process
// path at any worker count — including with a worker killed mid-campaign
// (crash re-lease) — and every executor must drive the ProgressSink with
// the same ordering and counter invariants.
#include "sweep/executor.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "rootstress.h"

namespace rootstress::sweep {
namespace {

namespace fs = std::filesystem;

/// 2 x 2 = 4 cells, fluid-only on a small topology: enough parallelism
/// to exercise leasing without minutes of wall time.
Campaign test_campaign() {
  Campaign campaign;
  campaign.name = "executor-test";
  campaign.base = sim::ScenarioBuilder::november_2015()
                      .fluid_only()
                      .topology_stubs(250)
                      .duration(net::SimTime::from_hours(10))
                      .build();
  campaign.add(Axis::attack_qps({1e6, 5e6}))
      .add(Axis::capacity_scale({0.75, 1.0}));
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

void expect_identical_cells(const CampaignResult& a, const CampaignResult& b,
                            const char* what) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].key, b.cells[i].key) << what;
    EXPECT_TRUE(a.cells[i].summary == b.cells[i].summary)
        << what << ": cell " << a.cells[i].label << " diverged";
  }
}

TEST(ExecutorConfigApi, ModeNamesRoundTrip) {
  EXPECT_EQ(to_string(ExecutorMode::kInProcess), "inproc");
  EXPECT_EQ(to_string(ExecutorMode::kSubprocess), "subprocess");
  EXPECT_EQ(make_executor({})->name(), "inproc");
  ExecutorConfig fabric;
  fabric.mode = ExecutorMode::kSubprocess;
  EXPECT_EQ(make_executor(fabric)->name(), "subprocess");
}

TEST(SubprocessExecutor, DigestsMatchInProcessAtOneAndFourWorkers) {
  const Campaign campaign = test_campaign();

  CampaignOptions inproc = quiet_options();
  inproc.executor.workers = 2;
  const CampaignResult reference = run_campaign(campaign, inproc);
  EXPECT_EQ(reference.executor, "inproc");
  ASSERT_EQ(reference.cells.size(), 4u);
  for (const CellOutcome& cell : reference.cells) {
    EXPECT_EQ(cell.executed_by, "inproc") << cell.label;
  }

  for (const int workers : {1, 4}) {
    CampaignOptions fabric = quiet_options();
    fabric.executor.mode = ExecutorMode::kSubprocess;
    fabric.executor.workers = workers;
    const CampaignResult result = run_campaign(campaign, fabric);
    EXPECT_EQ(result.executor, "subprocess");
    EXPECT_EQ(result.executed, 4u);
    expect_identical_cells(reference, result, "subprocess-vs-inproc");
    for (const CellOutcome& cell : result.cells) {
      EXPECT_EQ(cell.executed_by.rfind("worker-", 0), 0u)
          << cell.label << " ran on '" << cell.executed_by << "'";
    }
  }
}

TEST(SubprocessExecutor, SharesTheRunCacheAcrossProcesses) {
  const Campaign campaign = test_campaign();
  CampaignOptions options = quiet_options();
  options.cache_dir = fresh_dir("rs_fabric_cache");
  options.executor.mode = ExecutorMode::kSubprocess;
  options.executor.workers = 2;

  const CampaignResult cold = run_campaign(campaign, options);
  EXPECT_EQ(cold.executed, 4u);
  EXPECT_EQ(cold.cache_hits, 0u);

  // Warm pass: the probe serves every cell; no worker fleet needed.
  const CampaignResult warm = run_campaign(campaign, options);
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_EQ(warm.cache_hits, 4u);
  expect_identical_cells(cold, warm, "fabric-warm-cache");
  for (const CellOutcome& cell : warm.cells) {
    EXPECT_EQ(cell.executed_by, "cache") << cell.label;
  }

  // The entries a worker process stored serve an in-process campaign
  // too: the cache key is executor-agnostic.
  CampaignOptions inproc = quiet_options();
  inproc.cache_dir = options.cache_dir;
  const CampaignResult cross = run_campaign(campaign, inproc);
  EXPECT_EQ(cross.cache_hits, 4u);
}

TEST(SubprocessExecutor, KilledWorkerCellsAreReLeasedWithIdenticalDigests) {
  const Campaign campaign = test_campaign();

  CampaignOptions inproc = quiet_options();
  const CampaignResult reference = run_campaign(campaign, inproc);

  CampaignOptions fabric = quiet_options();
  fabric.executor.mode = ExecutorMode::kSubprocess;
  fabric.executor.workers = 3;
  // Worker 0 exits hard (no goodbye) after accepting its first lease,
  // exactly like a crashed or OOM-killed process.
  fabric.executor.fail_worker_after = 0;
  const CampaignResult result = run_campaign(campaign, fabric);

  EXPECT_EQ(result.executed, 4u);
  expect_identical_cells(reference, result, "crash-re-lease");
  // Every cell completed on one of the survivors.
  for (const CellOutcome& cell : result.cells) {
    EXPECT_NE(cell.executed_by, "worker-0") << cell.label;
    EXPECT_EQ(cell.executed_by.rfind("worker-", 0), 0u) << cell.label;
  }
}

TEST(SubprocessExecutor, LosingEveryWorkerIsARuntimeErrorNotAHang) {
  Campaign campaign = test_campaign();
  campaign.axes.resize(1);  // 2 cells
  CampaignOptions options = quiet_options();
  options.executor.mode = ExecutorMode::kSubprocess;
  // A fleet of one whose only member crashes on its first lease: with
  // nobody left to re-lease to, the campaign must fail fast, not hang.
  options.executor.workers = 1;
  options.executor.fail_worker_after = 0;
  EXPECT_THROW(run_campaign(campaign, options), std::runtime_error);
}

/// Asserts the CompletionBoard invariants at every callback, from any
/// executor: done is monotone, running + done never exceeds the cells to
/// run, the hit rate is a constant in [0, 1], and finish events arrive
/// one per executed cell.
class InvariantSink : public ProgressSink {
 public:
  void campaign_started(const ProgressSnapshot& snapshot) override {
    ++started_calls;
    total = snapshot.total;
    cached = snapshot.cached;
    check(snapshot);
  }
  void cell_started(const CellProgress& cell,
                    const ProgressSnapshot& snapshot) override {
    EXPECT_TRUE(cell.executed_by.empty())
        << "executor known before any result landed";
    ++cell_started_calls;
    check(snapshot);
  }
  void cell_finished(const CellProgress& cell,
                     const ProgressSnapshot& snapshot) override {
    EXPECT_EQ(snapshot.done, last_done + 1) << "finish events must step by 1";
    EXPECT_GT(snapshot.ema_cell_ms, 0.0);
    finished_by.push_back(cell.executed_by);
    finished_labels.insert(cell.label);
    last_done = snapshot.done;
    check(snapshot);
  }
  void campaign_finished(const ProgressSnapshot& snapshot) override {
    ++finished_calls;
    EXPECT_EQ(snapshot.running, 0u);
    EXPECT_EQ(snapshot.done + snapshot.cached, snapshot.total);
    check(snapshot);
  }

  std::size_t total = 0, cached = 0, last_done = 0;
  int started_calls = 0, cell_started_calls = 0, finished_calls = 0;
  std::vector<std::string> finished_by;
  std::set<std::string> finished_labels;

 private:
  void check(const ProgressSnapshot& snapshot) {
    EXPECT_EQ(snapshot.total, total);
    EXPECT_EQ(snapshot.cached, cached);
    EXPECT_GE(snapshot.done, last_done) << "done went backwards";
    EXPECT_LE(snapshot.running + snapshot.done, total - cached);
    EXPECT_GE(snapshot.cache_hit_rate, 0.0);
    EXPECT_LE(snapshot.cache_hit_rate, 1.0);
  }
};

class ExecutorProgressContract : public ::testing::TestWithParam<ExecutorMode> {
};

TEST_P(ExecutorProgressContract, SinkInvariantsHoldUnderConcurrency) {
  const Campaign campaign = test_campaign();
  InvariantSink sink;
  CampaignOptions options = quiet_options();
  options.executor.mode = GetParam();
  options.executor.workers = 4;
  options.progress_sink = &sink;
  const CampaignResult result = run_campaign(campaign, options);

  EXPECT_EQ(sink.started_calls, 1);
  EXPECT_EQ(sink.finished_calls, 1);
  EXPECT_EQ(sink.cell_started_calls, 4);
  EXPECT_EQ(sink.last_done, 4u);
  EXPECT_EQ(sink.finished_labels.size(), 4u);
  for (const CellOutcome& cell : result.cells) {
    EXPECT_TRUE(sink.finished_labels.count(cell.label)) << cell.label;
  }
  const std::string expected_prefix =
      GetParam() == ExecutorMode::kInProcess ? "inproc" : "worker-";
  for (const std::string& who : sink.finished_by) {
    EXPECT_EQ(who.rfind(expected_prefix, 0), 0u) << who;
  }
}

INSTANTIATE_TEST_SUITE_P(BothExecutors, ExecutorProgressContract,
                         ::testing::Values(ExecutorMode::kInProcess,
                                           ExecutorMode::kSubprocess),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

}  // namespace
}  // namespace rootstress::sweep
