// Distributed-fabric gate: the SubprocessExecutor must (a) produce
// per-cell RunSummary digests bit-identical to the in-process executor
// at 1 and 4 workers, (b) survive losing a worker mid-campaign by
// re-leasing its cells — still bit-identical — and (c) keep the fabric's
// coordination overhead bounded relative to in-process execution on the
// same grid. Writes the measurements to BENCH_distributed.json (path
// overridable as argv[1]); the overhead ceiling is 3x the in-process
// wall time.
//
// Exit status is the contract: nonzero on any digest mismatch, a lost
// cell, or overhead past the ceiling — scripts/check.sh runs this as the
// distributed gate.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "rootstress.h"

using namespace rootstress;

namespace {

/// 2 x 3 = 6 cells, fluid-only, small topology: enough cells that a
/// 4-worker fleet actually overlaps, small enough to finish in seconds.
sweep::Campaign bench_campaign() {
  sweep::Campaign campaign;
  campaign.name = "bench-distributed";
  campaign.base = sim::ScenarioBuilder::november_2015()
                      .fluid_only()
                      .topology_stubs(250)
                      .duration(net::SimTime::from_hours(10))
                      .build();
  campaign.add(sweep::Axis::attack_qps({1e6, 5e6}))
      .add(sweep::Axis::capacity_scale({0.5, 1.0, 2.0}));
  return campaign;
}

sweep::CampaignResult run_with(sweep::ExecutorMode mode, int workers,
                               int fail_worker_after = -1) {
  sweep::CampaignOptions options;
  options.telemetry = false;
  options.executor.mode = mode;
  options.executor.workers = workers;
  options.executor.fail_worker_after = fail_worker_after;
  return rootstress::run_campaign(bench_campaign(), options);
}

/// Per-cell summaries must be bit-identical (defaulted operator==, every
/// double included). Returns the number of diverging cells.
std::size_t diff_cells(const sweep::CampaignResult& a,
                       const sweep::CampaignResult& b, const char* what) {
  std::size_t diverged = 0;
  if (a.cells.size() != b.cells.size()) {
    std::printf("FAIL: %s cell counts differ (%zu vs %zu)\n", what,
                a.cells.size(), b.cells.size());
    return a.cells.size() > b.cells.size() ? a.cells.size() : b.cells.size();
  }
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (a.cells[i].key != b.cells[i].key ||
        !(a.cells[i].summary == b.cells[i].summary)) {
      std::printf("FAIL: %s cell '%s' diverged\n", what,
                  a.cells[i].label.c_str());
      ++diverged;
    }
  }
  return diverged;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_distributed.json";
  // The fabric forks, leases, heartbeats, and ships every summary as
  // JSON, so some overhead is physics — but on a 6-cell grid it must
  // stay within this multiple of the in-process wall time.
  const double overhead_max = 3.0;

  std::printf("in-process reference (4 workers)...\n");
  const sweep::CampaignResult inproc =
      run_with(sweep::ExecutorMode::kInProcess, 4);

  std::printf("subprocess, 1 worker...\n");
  const sweep::CampaignResult fabric1 =
      run_with(sweep::ExecutorMode::kSubprocess, 1);
  std::printf("subprocess, 4 workers...\n");
  const sweep::CampaignResult fabric4 =
      run_with(sweep::ExecutorMode::kSubprocess, 4);

  std::printf("subprocess, 4 workers, worker-0 killed after first lease...\n");
  const sweep::CampaignResult crashed =
      run_with(sweep::ExecutorMode::kSubprocess, 4, /*fail_worker_after=*/0);

  std::size_t diverged = 0;
  diverged += diff_cells(inproc, fabric1, "1-worker fabric");
  diverged += diff_cells(inproc, fabric4, "4-worker fabric");
  diverged += diff_cells(inproc, crashed, "crash-re-lease fabric");

  std::size_t incomplete = 0;
  for (const sweep::CampaignResult* result : {&fabric1, &fabric4, &crashed}) {
    for (const sweep::CellOutcome& cell : result->cells) {
      if (cell.executed_by.rfind("worker-", 0) != 0) ++incomplete;
    }
  }
  if (incomplete > 0) {
    std::printf("FAIL: %zu cells did not complete on a fabric worker\n",
                incomplete);
  }

  const double overhead_ratio =
      inproc.wall_ms > 0.0 ? fabric4.wall_ms / inproc.wall_ms : 0.0;
  const bool overhead_ok = overhead_ratio <= overhead_max;
  const bool pass = diverged == 0 && incomplete == 0 && overhead_ok;

  std::printf(
      "inproc %.0f ms, fabric x1 %.0f ms, fabric x4 %.0f ms "
      "(ratio %.2fx, ceiling %.1fx), crash run %.0f ms; "
      "%zu diverged, %zu incomplete\n",
      inproc.wall_ms, fabric1.wall_ms, fabric4.wall_ms, overhead_ratio,
      overhead_max, crashed.wall_ms, diverged, incomplete);

  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("bench", obs::JsonValue("distributed"));
  doc.set("cells", obs::JsonValue(static_cast<double>(inproc.cells.size())));
  doc.set("inproc_ms", obs::JsonValue(inproc.wall_ms));
  doc.set("fabric_1_ms", obs::JsonValue(fabric1.wall_ms));
  doc.set("fabric_4_ms", obs::JsonValue(fabric4.wall_ms));
  doc.set("crash_ms", obs::JsonValue(crashed.wall_ms));
  doc.set("overhead_ratio", obs::JsonValue(overhead_ratio));
  doc.set("overhead_max", obs::JsonValue(overhead_max));
  doc.set("diverged_cells", obs::JsonValue(static_cast<double>(diverged)));
  doc.set("incomplete_cells",
          obs::JsonValue(static_cast<double>(incomplete)));
  doc.set("digests_identical", obs::JsonValue(diverged == 0));
  doc.set("pass", obs::JsonValue(pass));
  bench::write_bench_json(out_path, std::move(doc));

  if (!pass) {
    std::puts("FAIL: distributed fabric gate");
    return 1;
  }
  std::puts("PASS");
  return 0;
}
