// Campaign sweep throughput guard: runs a 2x2x2 fluid-only campaign cold
// (empty cache) and then warm, reporting cells/minute and the cache-hit
// speedup. Writes BENCH_sweep.json (path overridable as argv[1]).
//
// Pass criteria: the warm pass must execute ZERO engine runs (every cell
// served from the cache) and every warm summary must be bit-identical to
// its cold counterpart — the content-addressed cache contract. Speedup is
// reported but not gated (it is dominated by scenario size).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>

#include "bench_json.h"
#include "rootstress.h"

using namespace rootstress;

namespace {

sweep::Campaign make_campaign() {
  sweep::Campaign campaign;
  campaign.name = "bench-sweep";
  campaign.base = sim::ScenarioBuilder::november_2015()
                      .fluid_only()
                      .topology_stubs(300)
                      .duration(net::SimTime::from_hours(10))
                      .build();
  campaign.add(sweep::Axis::attack_qps({2.5e6, 5e6}))
      .add(sweep::Axis::capacity_scale({0.75, 1.0}))
      .add(sweep::Axis::replicate_seeds({1, 2}));
  return campaign;
}

double run_ms(const sweep::Campaign& campaign,
              const sweep::CampaignOptions& options,
              sweep::CampaignResult* out) {
  const auto begin = std::chrono::steady_clock::now();
  *out = sweep::run_campaign(campaign, options);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - begin)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_sweep.json";

  // A unique temp cache dir so reruns always start cold.
  std::random_device rd;
  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path() /
      ("bench_sweep_cache_" + std::to_string(rd()));

  sweep::CampaignOptions options;
  options.cache_dir = cache_dir;
  options.telemetry = false;

  const sweep::Campaign campaign = make_campaign();
  std::printf("campaign: %zu cells, cache %s\n", campaign.cell_count(),
              cache_dir.string().c_str());

  sweep::CampaignResult cold, warm;
  const double cold_ms = run_ms(campaign, options, &cold);
  std::printf("cold: %.1f ms, executed=%zu\n", cold_ms, cold.executed);
  const double warm_ms = run_ms(campaign, options, &warm);
  std::printf("warm: %.1f ms, executed=%zu cache_hits=%zu\n", warm_ms,
              warm.executed, warm.cache_hits);

  bool identical = cold.cells.size() == warm.cells.size();
  for (std::size_t i = 0; identical && i < cold.cells.size(); ++i) {
    identical = cold.cells[i].summary == warm.cells[i].summary;
  }

  const double cells_per_minute =
      cold_ms > 0.0 ? 60000.0 * static_cast<double>(cold.cells.size()) / cold_ms
                    : 0.0;
  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  const bool pass = warm.executed == 0 &&
                    warm.cache_hits == campaign.cell_count() && identical;

  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("bench", obs::JsonValue("sweep"));
  doc.set("cells", obs::JsonValue(static_cast<double>(cold.cells.size())));
  doc.set("cold_ms", obs::JsonValue(cold_ms));
  doc.set("warm_ms", obs::JsonValue(warm_ms));
  doc.set("cells_per_minute", obs::JsonValue(cells_per_minute));
  doc.set("cache_hit_speedup", obs::JsonValue(speedup));
  doc.set("warm_executed", obs::JsonValue(static_cast<double>(warm.executed)));
  doc.set("warm_identical", obs::JsonValue(identical));
  doc.set("pass", obs::JsonValue(pass));
  std::printf("cells/minute (cold): %.1f; cache-hit speedup: %.0fx\n",
              cells_per_minute, speedup);
  bench::write_bench_json(out_path, std::move(doc));

  std::filesystem::remove_all(cache_dir);
  std::puts(pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
