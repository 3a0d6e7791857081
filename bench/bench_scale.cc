// Scale gate: CDN-class synthetic deployments on the hot paths.
//
// Two cell families, written to BENCH_scale.json (path overridable as
// argv[1]):
//
//  1. Churn cell: a ~10^4-AS synthetic topology driven through hundreds
//     of announce/withdraw/prepend mutations twice — once with full-table
//     recompute, once with incremental change propagation — asserting the
//     RouteChange streams, final route tables, and catchments are
//     bit-identical, and requiring the incremental path to be >= 5x
//     faster (the ROADMAP's "Internet-scale substrate" bar).
//  2. Population cells: end-to-end engine runs (fluid + probing) at ~3
//     growing (ASes, sites, VPs) sizes, recording wall time, probe
//     records/sec, and the BGP recompute/reselect counters.
//
// Smoke sizes run by default (CI gate); ROOTSTRESS_SCALE_FULL=1 switches
// to the full population ladder. EXPERIMENTS.md "Scale" documents how to
// read the output.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bgp/catchment.h"
#include "obs/json.h"
#include "obs/runtime.h"
#include "sim/engine.h"
#include "sim/scenario_builder.h"
#include "util/rng.h"

using namespace rootstress;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ChurnMeasurement {
  double build_ms = 0.0;
  double churn_ms = 0.0;
  std::vector<bgp::RouteChange> changes;
  std::vector<bgp::RouteChoice> final_routes;
  bgp::CatchmentSizes catchment;
  std::uint64_t recomputes = 0;
  std::uint64_t reselects = 0;
};

/// Replays the same deterministic mutation sequence against a freshly
/// built deployment in `mode`. The op stream is independent of routing
/// output, so both modes see identical inputs.
ChurnMeasurement run_churn(bgp::RecomputeMode mode, int n_ases, int n_sites,
                           int ops) {
  const auto deployment_config = sim::ScenarioBuilder()
                                     .synthetic_topology(n_ases, n_sites)
                                     .peek()
                                     .deployment;
  ChurnMeasurement m;
  const double t_build = now_ms();
  anycast::RootDeployment deployment(deployment_config);
  m.build_ms = now_ms() - t_build;

  obs::Runtime obs;
  deployment.attach_obs(&obs);
  bgp::AnycastRouting& routing = deployment.routing();
  routing.set_mode(mode);
  // The timed loop measures pure recompute cost; equivalence is asserted
  // by the caller's stream/table diff, not the sampled cross-check.
  routing.set_cross_check_interval(1 << 30);
  const int prefix = deployment.services().front().prefix;

  util::Rng rng(2015);
  const double t_churn = now_ms();
  for (int i = 0; i < ops; ++i) {
    const int site = static_cast<int>(rng.below(
        static_cast<std::size_t>(n_sites)));
    const net::SimTime now(i);
    std::vector<bgp::RouteChange> step;
    switch (rng.below(3)) {
      case 0:
        step = routing.set_origin_state(prefix, site,
                                        /*announced=*/rng.below(4) != 0,
                                        /*local_only=*/rng.below(4) == 0, now);
        break;
      case 1:
        step = routing.set_prepend(prefix, site,
                                   static_cast<int>(rng.below(4)), now);
        break;
      default:
        step = routing.set_origin_state(prefix, site, /*announced=*/true,
                                        /*local_only=*/false, now);
        break;
    }
    m.changes.insert(m.changes.end(), step.begin(), step.end());
  }
  m.churn_ms = now_ms() - t_churn;

  m.final_routes = routing.routes(prefix);
  m.catchment = bgp::catchment_sizes(m.final_routes, deployment.site_count());
  const obs::Labels labels{{"letter", "A"}};
  m.recomputes =
      obs.metrics().counter("bgp.recomputes", labels).value();
  m.reselects =
      obs.metrics().counter("bgp.incremental_reselects", labels).value();
  return m;
}

bool churn_identical(const ChurnMeasurement& a, const ChurnMeasurement& b) {
  if (a.changes.size() != b.changes.size()) return false;
  for (std::size_t i = 0; i < a.changes.size(); ++i) {
    if (!(a.changes[i].as_index == b.changes[i].as_index &&
          a.changes[i].old_site == b.changes[i].old_site &&
          a.changes[i].new_site == b.changes[i].new_site &&
          a.changes[i].time == b.changes[i].time)) {
      return false;
    }
  }
  return a.final_routes == b.final_routes &&
         a.catchment.per_site == b.catchment.per_site &&
         a.catchment.unreachable == b.catchment.unreachable;
}

struct PopulationCell {
  int n_ases = 0;
  int n_sites = 0;
  int vps = 0;
};

struct PopulationMeasurement {
  PopulationCell cell;
  double wall_ms = 0.0;
  std::size_t records = 0;
  double records_per_sec = 0.0;
  std::size_t route_changes = 0;
  double recomputes = 0.0;
  double reselects = 0.0;
};

double sum_metric(const obs::Snapshot& snapshot, const char* name) {
  double total = 0.0;
  for (const obs::MetricSample& sample : snapshot.metrics) {
    if (sample.name == name) total += sample.value;
  }
  return total;
}

PopulationMeasurement run_population(const PopulationCell& cell) {
  sim::ScenarioConfig config =
      sim::ScenarioBuilder()
          .synthetic_topology(cell.n_ases, cell.n_sites)
          .vp_count(cell.vps)
          .duration(net::SimTime::from_hours(2))
          .probe_window(net::SimInterval{net::SimTime(0),
                                         net::SimTime::from_hours(2)})
          .maintenance_flap(0.05)  // background churn keeps BGP hot
          .build();
  PopulationMeasurement m;
  m.cell = cell;
  const double t0 = now_ms();
  sim::SimulationEngine engine(config);
  const sim::SimulationResult result = engine.run();
  m.wall_ms = now_ms() - t0;
  m.records = result.records.size();
  m.records_per_sec =
      m.wall_ms > 0.0 ? 1000.0 * static_cast<double>(m.records) / m.wall_ms
                      : 0.0;
  m.route_changes = result.route_changes.size();
  m.recomputes = sum_metric(result.telemetry, "bgp.recomputes");
  m.reselects = sum_metric(result.telemetry, "bgp.incremental_reselects");
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_scale.json";
  const char* full_env = std::getenv("ROOTSTRESS_SCALE_FULL");
  const bool full = full_env != nullptr && full_env[0] == '1';

  // -- Churn cell -------------------------------------------------------
  const int churn_ases = 10000;
  const int churn_sites = 64;
  const int churn_ops = full ? 600 : 300;
  std::printf("churn cell: %d ASes, %d sites, %d ops\n", churn_ases,
              churn_sites, churn_ops);
  const ChurnMeasurement full_mode =
      run_churn(bgp::RecomputeMode::kFull, churn_ases, churn_sites, churn_ops);
  std::printf("  full:        %.1f ms (%llu recomputes)\n", full_mode.churn_ms,
              static_cast<unsigned long long>(full_mode.recomputes));
  const ChurnMeasurement incremental = run_churn(
      bgp::RecomputeMode::kIncremental, churn_ases, churn_sites, churn_ops);
  std::printf("  incremental: %.1f ms (%llu reselects)\n",
              incremental.churn_ms,
              static_cast<unsigned long long>(incremental.reselects));

  const bool identical = churn_identical(full_mode, incremental);
  const double speedup = incremental.churn_ms > 0.0
                             ? full_mode.churn_ms / incremental.churn_ms
                             : 0.0;
  std::printf("  identical=%s speedup=%.1fx (bar: 5x)\n",
              identical ? "yes" : "NO", speedup);

  // -- Population cells -------------------------------------------------
  std::vector<PopulationCell> cells;
  if (full) {
    cells = {{10000, 48, 400}, {20000, 64, 800}, {40000, 96, 1600}};
  } else {
    cells = {{2000, 24, 150}, {5000, 32, 250}, {10000, 48, 400}};
  }
  std::vector<PopulationMeasurement> population;
  for (const PopulationCell& cell : cells) {
    std::printf("population cell: %d ASes, %d sites, %d VPs...\n",
                cell.n_ases, cell.n_sites, cell.vps);
    population.push_back(run_population(cell));
    const PopulationMeasurement& m = population.back();
    std::printf("  %.1f ms, %zu records (%.0f records/sec), "
                "%zu route changes, %.0f recomputes, %.0f reselects\n",
                m.wall_ms, m.records, m.records_per_sec, m.route_changes,
                m.recomputes, m.reselects);
  }

  // -- Report -----------------------------------------------------------
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("bench", obs::JsonValue("scale"));
  doc.set("mode", obs::JsonValue(full ? "full" : "smoke"));
  obs::JsonValue churn = obs::JsonValue::object();
  churn.set("n_ases", obs::JsonValue(churn_ases));
  churn.set("n_sites", obs::JsonValue(churn_sites));
  churn.set("ops", obs::JsonValue(churn_ops));
  churn.set("full_ms", obs::JsonValue(full_mode.churn_ms));
  churn.set("incremental_ms", obs::JsonValue(incremental.churn_ms));
  churn.set("speedup", obs::JsonValue(speedup));
  churn.set("required_speedup", obs::JsonValue(5.0));
  churn.set("identical", obs::JsonValue(identical));
  churn.set("route_changes",
            obs::JsonValue(static_cast<double>(incremental.changes.size())));
  churn.set("full_recomputes",
            obs::JsonValue(static_cast<double>(full_mode.recomputes)));
  churn.set("incremental_reselects",
            obs::JsonValue(static_cast<double>(incremental.reselects)));
  doc.set("churn", std::move(churn));

  obs::JsonValue cells_json = obs::JsonValue::array();
  for (const PopulationMeasurement& m : population) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("n_ases", obs::JsonValue(m.cell.n_ases));
    entry.set("n_sites", obs::JsonValue(m.cell.n_sites));
    entry.set("vps", obs::JsonValue(m.cell.vps));
    entry.set("wall_ms", obs::JsonValue(m.wall_ms));
    entry.set("records", obs::JsonValue(static_cast<double>(m.records)));
    entry.set("records_per_sec", obs::JsonValue(m.records_per_sec));
    entry.set("route_changes",
              obs::JsonValue(static_cast<double>(m.route_changes)));
    entry.set("bgp_recomputes", obs::JsonValue(m.recomputes));
    entry.set("bgp_incremental_reselects", obs::JsonValue(m.reselects));
    cells_json.push_back(std::move(entry));
  }
  doc.set("population", std::move(cells_json));

  const bool pass = identical && speedup >= 5.0;
  doc.set("pass", obs::JsonValue(pass));
  bench::write_bench_json(out_path, std::move(doc));

  if (!pass) {
    std::puts("FAIL");
    return 1;
  }
  std::puts("PASS");
  return 0;
}
