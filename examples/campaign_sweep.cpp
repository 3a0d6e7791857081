// Campaign sweep: the paper's §5 what-if grid as one declarative
// Campaign — "how would the event have gone with more capacity, or a
// different defense policy?" — expanded, cached, and run in parallel.
//
// Usage:
//   ./build/examples/campaign_sweep [--cache DIR] [--workers N]
//                                   [--executor inproc|subprocess] [--progress]
//   ./build/examples/campaign_sweep --smoke [--cache DIR] [--progress]
//
// --workers takes a whole integer in [0, 256] (0 = auto); anything else
// prints the usage line and exits 2.
//
// The default mode runs the 3x3 policy-vs-attack-rate grid and prints a
// comparison table (mean served fraction over the attacked letters during
// the event windows). --smoke runs a tiny 2x2 grid (used by
// scripts/check.sh to assert cold-vs-warm cache behaviour) and prints a
// machine-greppable `executed=N cache_hits=M` line. --progress swaps the
// per-cell stdout lines for the live stderr observatory (queued / running
// / done counts, cache hit rate, EMA-based ETA, straggler flags, and which
// executor lane ran each cell: `<- inproc`, `<- worker-2`, `<- cache`).
// --executor subprocess runs the misses on the multi-process fabric
// (sweep/fabric/): N forked workers leased cells over a pipe protocol,
// bit-identical results to inproc at any worker count.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "rootstress.h"
#include "util/env.h"
#include "util/parallel.h"

using namespace rootstress;

namespace {

sim::ScenarioConfig smoke_base() {
  // Small and fluid-only: seconds, not minutes.
  return sim::ScenarioBuilder::november_2015()
      .fluid_only()
      .topology_stubs(250)
      .duration(net::SimTime::from_hours(10))
      .build();
}

sim::ScenarioConfig whatif_base() {
  return sim::ScenarioBuilder::november_2015()
      .fluid_only()
      .topology_stubs(600)
      .build();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool progress = false;
  sweep::CampaignOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      progress = true;
    } else if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      options.cache_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      // 0 = auto; more than the lane cap is refused, not clamped.
      const auto workers = util::parse_integer(argv[++i], 0, util::kMaxThreads);
      if (!workers) {
        std::fprintf(stderr,
                     "usage: campaign_sweep [--smoke] [--cache DIR] "
                     "[--workers N] [--executor inproc|subprocess] "
                     "[--progress]\n");
        return 2;
      }
      options.executor.workers = static_cast<int>(*workers);
    } else if (std::strcmp(argv[i], "--executor") == 0 && i + 1 < argc) {
      const char* mode = argv[++i];
      if (std::strcmp(mode, "subprocess") == 0) {
        options.executor.mode = sweep::ExecutorMode::kSubprocess;
      } else if (std::strcmp(mode, "inproc") == 0) {
        options.executor.mode = sweep::ExecutorMode::kInProcess;
      } else {
        std::fprintf(stderr, "unknown --executor '%s' (inproc|subprocess)\n",
                     mode);
        return 2;
      }
    }
  }

  sweep::Campaign campaign;
  if (smoke) {
    campaign.name = "smoke";
    campaign.base = smoke_base();
    campaign.add(sweep::Axis::attack_qps({1e6, 5e6}))
        .add(sweep::Axis::capacity_scale({0.5, 1.0}));
  } else {
    campaign.name = "whatif-grid";
    campaign.base = whatif_base();
    campaign
        .add(sweep::Axis::policy({core::PolicyRegime::kAsDeployed,
                                  core::PolicyRegime::kAllAbsorb,
                                  core::PolicyRegime::kOracle}))
        .add(sweep::Axis::attack_qps({2.5e6, 5e6, 1e7}));
  }

  std::printf("campaign '%s': %zu cells%s\n", campaign.name.c_str(),
              campaign.cell_count(),
              options.cache_dir.empty()
                  ? ""
                  : (" (cache: " + options.cache_dir.string() + ")").c_str());
  sweep::StderrProgress observatory;
  if (progress) {
    options.progress_sink = &observatory;
  } else {
    options.progress = [](const std::string& label, bool cached, double ms) {
      std::printf("  %-32s %s\n", label.c_str(),
                  cached ? "cached" : ("ran in " + std::to_string(static_cast<int>(ms)) + " ms").c_str());
    };
  }

  const sweep::CampaignResult result = rootstress::run_campaign(campaign, options);

  if (!smoke) {
    std::puts("\nmean served fraction, attacked letters, during events:");
    result.table(/*row_axis=*/0, /*col_axis=*/1,
                 sweep::CellMetric::kMeanServedAttacked)
        .print(std::cout);
    std::puts("\nBGP route changes (defense churn):");
    result.table(0, 1, sweep::CellMetric::kRouteChanges).print(std::cout);
  }

  // Machine-greppable summary (scripts/check.sh asserts on this line).
  std::printf("executed=%zu cache_hits=%zu cells=%zu wall_ms=%.0f "
              "executor=%s workers=%d\n",
              result.executed, result.cache_hits, result.cells.size(),
              result.wall_ms, result.executor.c_str(), result.workers);
  return 0;
}
