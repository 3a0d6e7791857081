// Resolver-population overhead guard: stepping the in-loop client
// population must stay effectively free, and must never perturb the
// server-side simulation. Runs the November 30 scenario with the
// population off and on, compares best-of-N wall times, and fails
// (exit 1) if the population run is more than 5% slower or any
// server-side output moved by a single bit. Writes the measurement to
// BENCH_enduser.json (path overridable as argv[1]); threshold
// overridable with ROOTSTRESS_ENDUSER_OVERHEAD_MAX.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/json.h"
#include "resolver/population.h"
#include "sim/engine.h"
#include "sim/scenario_builder.h"

using namespace rootstress;

namespace {

struct RunMeasurement {
  double best_ms = 0.0;
  std::uint64_t server_digest = 0;  ///< hash of every server-side series
  std::size_t route_changes = 0;
  std::uint64_t enduser_digest = 0;  ///< 0 for the population-off variant
  double success_rate = 0.0;
  double cache_hit_rate = 0.0;
};

// Order-sensitive FNV-1a over the bit patterns of the served/failed/
// offered series: one integer that moves if the population feeds back
// into the fluid model in any way.
std::uint64_t server_side_digest(const sim::SimulationResult& result) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (bits >> shift) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t s = 0; s < result.service_offered_qps.size(); ++s) {
    const auto& offered = result.service_offered_qps[s];
    for (std::size_t b = 0; b < offered.bin_count(); ++b) {
      mix(offered.sum(b));
      mix(result.service_served_legit_qps[s].sum(b));
      mix(result.service_failed_legit_qps[s].sum(b));
    }
  }
  return h;
}

RunMeasurement measure(const sim::ScenarioConfig& config, int iterations) {
  RunMeasurement m;
  for (int i = 0; i < iterations; ++i) {
    const auto begin = std::chrono::steady_clock::now();
    sim::SimulationEngine engine(config);
    const sim::SimulationResult result = engine.run();
    const auto end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - begin).count();
    if (i == 0 || ms < m.best_ms) m.best_ms = ms;
    m.server_digest = server_side_digest(result);
    m.route_changes = result.route_changes.size();
    if (result.enduser.enabled) {
      m.enduser_digest = result.enduser.digest();
      m.success_rate = result.enduser.success_rate();
      m.cache_hit_rate = result.enduser.cache_hit_rate();
    }
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_enduser.json";
  const int iterations = 5;
  double threshold_pct = 5.0;
  if (const char* env = std::getenv("ROOTSTRESS_ENDUSER_OVERHEAD_MAX");
      env != nullptr && *env != '\0') {
    threshold_pct = std::atof(env);
  }

  // The paper-realistic November 30 scenario (full topology + atlas
  // probes), not a stripped fluid toy: the gate measures the population
  // against the workload it will actually ride along with.
  sim::ScenarioConfig config = sim::ScenarioBuilder::november_2015()
                                   .vp_count(sim::vp_count_from_env(400))
                                   .build();

  config.resolver_profile.reset();
  std::printf("baseline (population off), best of %d...\n", iterations);
  const RunMeasurement off = measure(config, iterations);

  config.resolver_profile = resolver::PopulationConfig{};
  std::printf("population on (%d resolvers), best of %d...\n",
              config.resolver_profile->resolvers, iterations);
  const RunMeasurement on = measure(config, iterations);

  const double overhead_pct =
      off.best_ms > 0.0 ? 100.0 * (on.best_ms - off.best_ms) / off.best_ms
                        : 0.0;
  const bool untouched = off.server_digest == on.server_digest &&
                         off.route_changes == on.route_changes;
  const bool pass = overhead_pct <= threshold_pct && untouched;

  std::printf("baseline %.1f ms, with population %.1f ms -> %+.2f%% "
              "(threshold %.1f%%); success %.4f, cache hit %.4f, "
              "end-user digest %016llx\n",
              off.best_ms, on.best_ms, overhead_pct, threshold_pct,
              on.success_rate, on.cache_hit_rate,
              static_cast<unsigned long long>(on.enduser_digest));
  if (!untouched) {
    std::printf("FAIL: resolver population perturbed the server side "
                "(digest %016llx vs %016llx, %zu vs %zu route changes)\n",
                static_cast<unsigned long long>(off.server_digest),
                static_cast<unsigned long long>(on.server_digest),
                off.route_changes, on.route_changes);
  }

  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("bench", obs::JsonValue("enduser_overhead"));
  doc.set("scenario", obs::JsonValue("november_2015"));
  doc.set("iterations", obs::JsonValue(static_cast<double>(iterations)));
  doc.set("baseline_ms", obs::JsonValue(off.best_ms));
  doc.set("population_ms", obs::JsonValue(on.best_ms));
  doc.set("overhead_pct", obs::JsonValue(overhead_pct));
  doc.set("threshold_pct", obs::JsonValue(threshold_pct));
  doc.set("resolvers", obs::JsonValue(static_cast<double>(
                           resolver::PopulationConfig{}.resolvers)));
  doc.set("success_rate", obs::JsonValue(on.success_rate));
  doc.set("cache_hit_rate", obs::JsonValue(on.cache_hit_rate));
  {
    char digest_hex[24];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(on.enduser_digest));
    doc.set("enduser_digest", obs::JsonValue(digest_hex));
  }
  doc.set("server_side_untouched", obs::JsonValue(untouched));
  doc.set("pass", obs::JsonValue(pass));
  std::ofstream out(out_path);
  out << doc.dump() << "\n";
  std::printf("wrote %s\n", out_path);

  if (!pass) {
    std::printf("FAIL: resolver population overhead above %.1f%% or "
                "server side perturbed\n",
                threshold_pct);
    return 1;
  }
  std::puts("PASS");
  return 0;
}
