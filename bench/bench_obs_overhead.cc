// Telemetry overhead guard: the obs/ subsystem must stay effectively
// free. Runs the June 2016 event scenario (same shape as
// `paper_report event_2016`) with telemetry off and on, compares
// best-of-N wall times, and fails (exit 1) if the instrumented run is
// more than 5% slower. Writes the measurement to BENCH_obs.json (path
// overridable as argv[1]); threshold overridable with
// ROOTSTRESS_OBS_OVERHEAD_MAX.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "obs/json.h"
#include "sim/engine.h"
#include "sim/scenario_builder.h"

using namespace rootstress;

namespace {

struct RunMeasurement {
  double best_ms = 0.0;
  std::size_t route_changes = 0;  // determinism check across variants
  std::uint64_t trace_emitted = 0;
  std::size_t metric_count = 0;
  std::size_t timeline_series = 0;   // flight-recorder shape (on-variant)
  std::size_t timeline_spans = 0;
  std::uint64_t timeline_digest = 0;
};

RunMeasurement measure(const sim::ScenarioConfig& config, int iterations) {
  RunMeasurement m;
  for (int i = 0; i < iterations; ++i) {
    const auto begin = std::chrono::steady_clock::now();
    sim::SimulationEngine engine(config);  // instruments attach here
    const sim::SimulationResult result = engine.run();
    const auto end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - begin).count();
    if (i == 0 || ms < m.best_ms) m.best_ms = ms;
    m.route_changes = result.route_changes.size();
    m.trace_emitted = result.telemetry.trace.emitted;
    m.metric_count = result.telemetry.metrics.size();
    const obs::TimelineData& tl = result.telemetry.timeline;
    m.timeline_series = tl.series.size();
    m.timeline_spans = tl.spans.size();
    m.timeline_digest = tl.empty() ? 0 : tl.digest();
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_obs.json";
  const int iterations = 3;
  double threshold_pct = 5.0;
  if (const char* env = std::getenv("ROOTSTRESS_OBS_OVERHEAD_MAX");
      env != nullptr && *env != '\0') {
    threshold_pct = std::atof(env);
  }

  sim::ScenarioConfig config = sim::ScenarioBuilder::events_2016()
                                   .vp_count(sim::vp_count_from_env(200))
                                   .build();

  config.telemetry = false;
  std::printf("baseline (telemetry off), best of %d...\n", iterations);
  const RunMeasurement off = measure(config, iterations);

  config.telemetry = true;
  std::printf("instrumented (telemetry on), best of %d...\n", iterations);
  const RunMeasurement on = measure(config, iterations);

  const double overhead_pct =
      off.best_ms > 0.0 ? 100.0 * (on.best_ms - off.best_ms) / off.best_ms
                        : 0.0;
  const bool deterministic = off.route_changes == on.route_changes;
  const bool pass = overhead_pct <= threshold_pct && deterministic;

  std::printf("baseline %.1f ms, instrumented %.1f ms -> %+.2f%% "
              "(threshold %.1f%%); %llu trace events, %zu metrics, "
              "timeline %zu series / %zu spans (digest %016llx)\n",
              off.best_ms, on.best_ms, overhead_pct, threshold_pct,
              static_cast<unsigned long long>(on.trace_emitted),
              on.metric_count, on.timeline_series, on.timeline_spans,
              static_cast<unsigned long long>(on.timeline_digest));
  if (!deterministic) {
    std::printf("FAIL: telemetry changed the simulation (%zu vs %zu route "
                "changes)\n",
                off.route_changes, on.route_changes);
  }

  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("bench", obs::JsonValue("obs_overhead"));
  doc.set("scenario", obs::JsonValue("june_2016"));
  doc.set("iterations", obs::JsonValue(static_cast<double>(iterations)));
  doc.set("baseline_ms", obs::JsonValue(off.best_ms));
  doc.set("instrumented_ms", obs::JsonValue(on.best_ms));
  doc.set("overhead_pct", obs::JsonValue(overhead_pct));
  doc.set("threshold_pct", obs::JsonValue(threshold_pct));
  doc.set("trace_events", obs::JsonValue(static_cast<double>(on.trace_emitted)));
  doc.set("metrics", obs::JsonValue(static_cast<double>(on.metric_count)));
  doc.set("timeline_series",
          obs::JsonValue(static_cast<double>(on.timeline_series)));
  doc.set("timeline_spans",
          obs::JsonValue(static_cast<double>(on.timeline_spans)));
  {
    char digest_hex[24];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(on.timeline_digest));
    doc.set("timeline_digest", obs::JsonValue(digest_hex));
  }
  doc.set("deterministic", obs::JsonValue(deterministic));
  doc.set("pass", obs::JsonValue(pass));
  std::ofstream out(out_path);
  out << doc.dump() << "\n";
  std::printf("wrote %s\n", out_path);

  if (!pass) {
    std::printf("FAIL: telemetry overhead above %.1f%%\n", threshold_pct);
    return 1;
  }
  std::puts("PASS");
  return 0;
}
