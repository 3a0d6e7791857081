// Fault-layer overhead guard: evaluating a FaultSchedule every engine
// step must stay effectively free. Runs the November 2015 scenario bare
// and under an outcome-neutral schedule — one full-on square pulse per
// base attack event (duty 1.0, matching rate/payloads/duplicate/
// spillover), so the fluid outcomes are bit-identical and the only added
// work is schedule evaluation itself. Compares best-of-N wall times and
// fails (exit 1) if the fault-laden run is more than 3% slower or any
// output diverges. Writes the measurement to BENCH_fault.json (path
// overridable as argv[1]); threshold overridable with
// ROOTSTRESS_FAULT_OVERHEAD_MAX.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "fault/schedule.h"
#include "obs/json.h"
#include "sim/engine.h"
#include "sim/scenario_builder.h"

using namespace rootstress;

namespace {

struct RunMeasurement {
  double best_ms = 0.0;
  sim::SimulationResult result;
};

RunMeasurement measure(const sim::ScenarioConfig& config, int iterations) {
  RunMeasurement m;
  for (int i = 0; i < iterations; ++i) {
    const auto begin = std::chrono::steady_clock::now();
    sim::SimulationEngine engine(config);
    sim::SimulationResult result = engine.run();
    const auto end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - begin).count();
    if (i == 0 || ms < m.best_ms) m.best_ms = ms;
    m.result = std::move(result);
  }
  return m;
}

/// A schedule that changes nothing: each base event re-expressed as a
/// single full-on square pulse with identical stream parameters. The
/// engine synthesizes the attack from the envelope instead of reading the
/// base schedule, so the timing delta is pure fault-layer evaluation.
fault::FaultSchedule neutral_schedule(const attack::AttackSchedule& base) {
  fault::FaultSchedule schedule;
  schedule.name = "neutral-full-on-pulse";
  for (const attack::AttackEvent& event : base.events()) {
    fault::PulseWave pulse;
    pulse.window = event.when;
    pulse.period = event.when.end - event.when.begin;
    pulse.duty = 1.0;
    pulse.shape = fault::PulseShape::kSquare;
    pulse.peak_qps = event.per_letter_qps;
    pulse.floor_scale = 0.0;
    pulse.query_payload_bytes = event.query_payload_bytes;
    pulse.response_payload_bytes = event.response_payload_bytes;
    pulse.duplicate_fraction = event.duplicate_fraction;
    pulse.spillover_fraction = event.spillover_fraction;
    schedule.pulses.push_back(pulse);
  }
  return schedule;
}

bool same_series(const util::BinnedSeries& a, const util::BinnedSeries& b) {
  if (a.bin_count() != b.bin_count()) return false;
  for (std::size_t bin = 0; bin < a.bin_count(); ++bin) {
    if (a.sum(bin) != b.sum(bin) || a.count(bin) != b.count(bin)) return false;
  }
  return true;
}

bool identical_outputs(const sim::SimulationResult& bare,
                       const sim::SimulationResult& faulted) {
  if (bare.records.size() != faulted.records.size()) return false;
  if (!bare.records.empty() &&
      std::memcmp(bare.records.data(), faulted.records.data(),
                  bare.records.size() * sizeof(atlas::ProbeRecord)) != 0) {
    return false;
  }
  if (bare.route_changes.size() != faulted.route_changes.size()) return false;
  if (bare.service_offered_qps.size() != faulted.service_offered_qps.size()) {
    return false;
  }
  for (std::size_t s = 0; s < bare.service_offered_qps.size(); ++s) {
    if (!same_series(bare.service_offered_qps[s],
                     faulted.service_offered_qps[s]) ||
        !same_series(bare.service_served_legit_qps[s],
                     faulted.service_served_legit_qps[s])) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_fault.json";
  const int iterations = 5;
  double threshold_pct = 3.0;
  if (const char* env = std::getenv("ROOTSTRESS_FAULT_OVERHEAD_MAX");
      env != nullptr && *env != '\0') {
    threshold_pct = std::atof(env);
  }

  sim::ScenarioConfig config = sim::ScenarioBuilder::november_2015()
                                   .vp_count(sim::vp_count_from_env(200))
                                   .build();

  std::printf("bare (no fault schedule), best of %d...\n", iterations);
  const RunMeasurement bare = measure(config, iterations);

  config.fault_schedule = neutral_schedule(config.schedule);
  std::printf("fault-laden (neutral full-on pulses), best of %d...\n",
              iterations);
  const RunMeasurement faulted = measure(config, iterations);

  const double overhead_pct =
      bare.best_ms > 0.0
          ? 100.0 * (faulted.best_ms - bare.best_ms) / bare.best_ms
          : 0.0;
  const bool neutral = identical_outputs(bare.result, faulted.result);
  const bool pass = overhead_pct <= threshold_pct && neutral;

  std::printf("bare %.1f ms, fault-laden %.1f ms -> %+.2f%% "
              "(threshold %.1f%%); outputs %s\n",
              bare.best_ms, faulted.best_ms, overhead_pct, threshold_pct,
              neutral ? "bit-identical" : "DIVERGED");

  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("bench", obs::JsonValue("fault_overhead"));
  doc.set("scenario", obs::JsonValue("november_2015"));
  doc.set("iterations", obs::JsonValue(static_cast<double>(iterations)));
  doc.set("bare_ms", obs::JsonValue(bare.best_ms));
  doc.set("fault_ms", obs::JsonValue(faulted.best_ms));
  doc.set("overhead_pct", obs::JsonValue(overhead_pct));
  doc.set("threshold_pct", obs::JsonValue(threshold_pct));
  doc.set("neutral", obs::JsonValue(neutral));
  doc.set("pass", obs::JsonValue(pass));
  std::ofstream out(out_path);
  out << doc.dump() << "\n";
  std::printf("wrote %s\n", out_path);

  if (!neutral) {
    std::printf("FAIL: the neutral schedule changed the simulation\n");
    return 1;
  }
  if (overhead_pct > threshold_pct) {
    std::printf("FAIL: fault-layer overhead above %.1f%%\n", threshold_pct);
    return 1;
  }
  std::puts("PASS");
  return 0;
}
