// bench_ab: the one A/B timing harness for the gates that bound what a
// feature costs a run. Each case is one row of a static table: a
// scenario (the A side), the change that makes the B side, a bound on
// B time / A time, and a check over one A result and one B result.
//
// Usage: bench_ab [obs|fault|playbook|enduser|parallel]...
//
// With no names every case runs; an unknown name lists the valid ones
// on stderr and exits 2. ROOTSTRESS_VPS resizes the four probing
// scenarios (obs, fault, enduser, parallel).
//
// One loop times every case. An untimed warm-up pair runs first and its
// two results feed the case's check. Then 7 timed pairs run, A first in
// even pairs and B first in odd ones; each timing covers engine
// construction plus run(). One rule decides every verdict: the median
// over the pairs of (B time / A time) must be within the bound, and the
// check must hold. Pairing cancels the host's slow drift and the median
// ignores the odd outlier pair; a best-of-N taken all-A-then-all-B
// measures the drift more than the feature. Each case writes
// BENCH_<case>.json to the working directory; the exit status is 1 when
// any selected case fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "rootstress.h"

using namespace rootstress;

namespace {

constexpr int kPairs = 7;

using Result = sim::SimulationResult;

/// Probe records and route-change counts bit-identical.
bool same_records(const Result& a, const Result& b) {
  return a.route_changes.size() == b.route_changes.size() &&
         a.records.size() == b.records.size() &&
         (a.records.empty() ||
          std::memcmp(a.records.data(), b.records.data(),
                      a.records.size() * sizeof(atlas::ProbeRecord)) == 0);
}

bool same_series(const util::BinnedSeries& a, const util::BinnedSeries& b) {
  if (a.bin_count() != b.bin_count()) return false;
  for (std::size_t bin = 0; bin < a.bin_count(); ++bin) {
    if (a.sum(bin) != b.sum(bin) || a.count(bin) != b.count(bin)) return false;
  }
  return true;
}

std::string hex(std::uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

// -- obs: the telemetry stack (metrics, trace, flight recorder) ---------

sim::ScenarioConfig obs_base() {
  sim::ScenarioConfig config = sim::ScenarioBuilder::events_2016()
                                   .vp_count(sim::vp_count_from_env(200))
                                   .build();
  config.telemetry = false;
  return config;
}

bool obs_check(const sim::ScenarioConfig&, const Result& off,
               const Result& on, obs::JsonValue& extras) {
  const obs::TimelineData& timeline = on.telemetry.timeline;
  extras.set("trace_events", obs::JsonValue(on.telemetry.trace.emitted));
  extras.set("metrics", obs::JsonValue(on.telemetry.metrics.size()));
  extras.set("timeline_series", obs::JsonValue(timeline.series.size()));
  extras.set("timeline_spans", obs::JsonValue(timeline.spans.size()));
  extras.set("timeline_digest",
             obs::JsonValue(hex(timeline.empty() ? 0 : timeline.digest())));
  // Telemetry must not change the simulation.
  return off.route_changes.size() == on.route_changes.size();
}

// -- fault: evaluating a FaultSchedule every step -------------------------

sim::ScenarioConfig november_2015(int default_vps) {
  return sim::ScenarioBuilder::november_2015()
      .vp_count(sim::vp_count_from_env(default_vps))
      .build();
}

/// A schedule that changes nothing: each base event re-expressed as one
/// full-on square pulse with the same stream parameters. The engine then
/// synthesizes the attack from the envelope instead of reading the base
/// schedule, so the B side adds only fault-layer evaluation.
void add_neutral_schedule(sim::ScenarioConfig& config) {
  fault::FaultSchedule& schedule = config.fault_schedule;
  schedule.name = "neutral-full-on-pulse";
  for (const attack::AttackEvent& event : config.schedule.events()) {
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
}

bool fault_check(const sim::ScenarioConfig&, const Result& bare,
                 const Result& faulted, obs::JsonValue&) {
  if (!same_records(bare, faulted) ||
      bare.service_offered_qps.size() != faulted.service_offered_qps.size()) {
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

// -- playbook: the closed loop in the defense-policy phase ----------------

sim::ScenarioConfig playbook_base() {
  return sim::ScenarioBuilder::november_2015()
      .fluid_only()
      .topology_stubs(300)
      .duration(net::SimTime::from_hours(10))
      .threads(1)
      .build();
}

bool playbook_check(const sim::ScenarioConfig&, const Result&,
                    const Result& controlled, obs::JsonValue& extras) {
  extras.set("detections", obs::JsonValue(controlled.playbook.detections));
  // A dormant loop would make the timing meaningless.
  return controlled.playbook.detections > 0;
}

// -- enduser: stepping the in-loop resolver population -------------------

/// Order-sensitive FNV-1a over the bit patterns of every service's
/// offered, served and failed series: one integer that moves if the
/// population feeds back into the fluid model in any way.
std::uint64_t server_side_digest(const Result& result) {
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

sim::ScenarioConfig enduser_base() {
  sim::ScenarioConfig config = november_2015(400);
  config.resolver_profile.reset();
  return config;
}

bool enduser_check(const sim::ScenarioConfig&, const Result& off,
                   const Result& on, obs::JsonValue& extras) {
  const std::uint64_t server_digest = server_side_digest(on);
  extras.set("resolvers",
             obs::JsonValue(resolver::PopulationConfig{}.resolvers));
  extras.set("enduser_digest", obs::JsonValue(hex(on.enduser.digest())));
  extras.set("success_rate", obs::JsonValue(on.enduser.success_rate()));
  extras.set("cache_hit_rate", obs::JsonValue(on.enduser.cache_hit_rate()));
  extras.set("server_digest", obs::JsonValue(hex(server_digest)));
  // The population observes the servers; it must never perturb them.
  return server_side_digest(off) == server_digest &&
         off.route_changes.size() == on.route_changes.size();
}

// -- parallel: 4 lanes against 1 -----------------------------------------

sim::ScenarioConfig parallel_base() {
  sim::ScenarioConfig config = november_2015(300);
  config.probe_letters = {'B', 'D', 'E', 'J', 'K'};
  config.end = net::SimTime::from_hours(12);
  config.probe_window = net::SimInterval{net::SimTime(0), config.end};
  config.telemetry = false;  // the bare hot path
  config.threads = 1;
  return config;
}

bool parallel_check(const sim::ScenarioConfig& serial_config,
                    const Result& serial, const Result& four,
                    obs::JsonValue& extras) {
  bool identical = same_records(serial, four);
  for (const int lanes : {2, 8}) {
    sim::ScenarioConfig config = serial_config;
    config.threads = lanes;
    identical = same_records(serial, sim::SimulationEngine(config).run()) &&
                identical;
  }
  extras.set("records", obs::JsonValue(serial.records.size()));
  extras.set("cores", obs::JsonValue(bench::host_cores()));
  return identical;
}

/// Speedup only comes from real cores: on N >= 2 cores the 4-lane run
/// must reach 0.6 * min(4, N)x. One core cannot speed up at all, so
/// there the pool may cost at most 25%.
double parallel_bound() {
  const int cores = bench::host_cores();
  return cores >= 2 ? 1.0 / (0.6 * std::min(4, cores)) : 1.0 / 0.75;
}

// -- The table and the loop ----------------------------------------------

struct Case {
  const char* name;
  const char* scenario;
  const char* a_side;
  const char* b_side;
  sim::ScenarioConfig (*base)();
  void (*to_b)(sim::ScenarioConfig&);
  double bound;  ///< on the median of B time / A time
  /// Judges the warm-up pair's results; may record extras for the JSON.
  bool (*check)(const sim::ScenarioConfig& a_config, const Result& a,
                const Result& b, obs::JsonValue& extras);
};

const Case kCases[] = {
    {"obs", "june_2016", "telemetry off", "telemetry on", obs_base,
     [](sim::ScenarioConfig& c) { c.telemetry = true; }, 1.05, obs_check},
    {"fault", "november_2015", "no fault schedule", "neutral full-on pulses",
     [] { return november_2015(200); }, add_neutral_schedule, 1.03,
     fault_check},
    {"playbook", "november_2015 fluid, 300 stubs, 10 h", "no controller",
     "absorb-only playbook", playbook_base,
     [](sim::ScenarioConfig& c) {
       c.playbook = playbook::Playbook::absorb_only();
     },
     1.03, playbook_check},
    {"enduser", "november_2015", "population off", "population on",
     enduser_base,
     [](sim::ScenarioConfig& c) {
       c.resolver_profile = resolver::PopulationConfig{};
     },
     1.05, enduser_check},
    {"parallel", "november_2015, B/D/E/J/K, 12 h", "1 lane", "4 lanes",
     parallel_base, [](sim::ScenarioConfig& c) { c.threads = 4; },
     parallel_bound(), parallel_check},
};

/// Wall time of engine construction plus run(); the result is destroyed
/// after the clock stops.
double timed_run(const sim::ScenarioConfig& config) {
  const auto begin = std::chrono::steady_clock::now();
  sim::SimulationEngine engine(config);
  [[maybe_unused]] const Result result = engine.run();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - begin)
      .count();
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Quartiles quartiles(const std::vector<double>& xs) {
  return {util::percentile(xs, 25.0), util::percentile(xs, 50.0),
          util::percentile(xs, 75.0)};
}

obs::JsonValue to_json(const Quartiles& q) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("q1", obs::JsonValue(q.q1));
  doc.set("median", obs::JsonValue(q.median));
  doc.set("q3", obs::JsonValue(q.q3));
  return doc;
}

bool run_case(const Case& c) {
  const sim::ScenarioConfig a = c.base();
  sim::ScenarioConfig b = a;
  c.to_b(b);
  std::printf("%s: %s, A = %s, B = %s; warm-up pair, then %d pairs...\n",
              c.name, c.scenario, c.a_side, c.b_side, kPairs);

  obs::JsonValue extras = obs::JsonValue::object();
  bool check = false;
  {
    const Result a_result = sim::SimulationEngine(a).run();
    const Result b_result = sim::SimulationEngine(b).run();
    check = c.check(a, a_result, b_result, extras);
  }

  std::vector<double> a_ms, b_ms, ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double a_time = 0.0;
    double b_time = 0.0;
    if (pair % 2 == 0) {
      a_time = timed_run(a);
      b_time = timed_run(b);
    } else {
      b_time = timed_run(b);
      a_time = timed_run(a);
    }
    a_ms.push_back(a_time);
    b_ms.push_back(b_time);
    ratios.push_back(b_time / a_time);
  }
  const Quartiles a_q = quartiles(a_ms);
  const Quartiles b_q = quartiles(b_ms);
  const Quartiles ratio = quartiles(ratios);
  const bool pass = check && ratio.median <= c.bound;

  std::printf("  A %.1f ms [%.1f-%.1f], B %.1f ms [%.1f-%.1f]\n", a_q.median,
              a_q.q1, a_q.q3, b_q.median, b_q.q1, b_q.q3);
  std::printf("  B/A median %.3f [%.3f-%.3f], bound %.3f; check %s; %s\n",
              ratio.median, ratio.q1, ratio.q3, c.bound,
              check ? "holds" : "FAILS", extras.dump().c_str());

  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("bench", obs::JsonValue("ab"));
  doc.set("case", obs::JsonValue(c.name));
  doc.set("scenario", obs::JsonValue(c.scenario));
  doc.set("a", obs::JsonValue(c.a_side));
  doc.set("b", obs::JsonValue(c.b_side));
  doc.set("pairs", obs::JsonValue(kPairs));
  doc.set("a_ms", to_json(a_q));
  doc.set("b_ms", to_json(b_q));
  doc.set("ratio", to_json(ratio));
  doc.set("bound", obs::JsonValue(c.bound));
  doc.set("check", obs::JsonValue(check));
  doc.set("pass", obs::JsonValue(pass));
  doc.set("extras", std::move(extras));
  bench::write_bench_json(std::string("BENCH_") + c.name + ".json",
                          std::move(doc));
  std::printf("%s: %s\n", c.name, pass ? "PASS" : "FAIL");
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Case*> selected;
  for (int i = 1; i < argc; ++i) {
    const auto match = std::find_if(
        std::begin(kCases), std::end(kCases),
        [&](const Case& c) { return std::strcmp(c.name, argv[i]) == 0; });
    if (match == std::end(kCases)) {
      std::fprintf(stderr, "bench_ab: unknown case '%s'; valid names:",
                   argv[i]);
      for (const Case& c : kCases) std::fprintf(stderr, " %s", c.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(match);
  }
  if (selected.empty()) {
    for (const Case& c : kCases) selected.push_back(&c);
  }
  bool pass = true;
  for (const Case* c : selected) pass = run_case(*c) && pass;
  return pass ? 0 : 1;
}
