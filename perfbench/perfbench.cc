// perfbench: the RootStress benchmark.
//
// Three workloads, one per user-facing path of the library:
//   replay    the paper's November 2015 reproduction (engine run, binning,
//             and the paper analyses over the cleaned records),
//   campaign  a cold what-if campaign followed by a warm pass over the
//             same fresh run cache,
//   wire      loopback DNS over UDP in the 2015 query shape.
// Every run executes all three legs, so every end-to-end metric exists on
// every workload: the workload's own leg at its full size, repeated until
// --seconds is spent, and the other two as compact companion legs. Each
// leg times the library's public calls from outside. Engine-internal
// phases come from the phase table the engine already exports
// (SimulationResult::telemetry) in the traced run (--trace 1), which
// reports the per-layer metrics instead of the end-to-end ones.
//
// Every run checks its outputs: replay digests against the reference
// pinned for the default seed (and repeat-to-repeat identity on any
// seed), warm campaign summaries against cold ones, and the wire legs for
// unmatched responses and a generator that fell behind its schedule.
//
// Usage:
//   perfbench --workload replay|campaign|wire --seed N --seconds S
//             --trace 0|1 --scratch DIR [--size full|tiny] [--git-sha SHA]
// The last line on stdout is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}};
// the line before it is the host block.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netio/arena.h"
#include "netio/generator.h"
#include "netio/server.h"
#include "obs/profiler.h"
#include "rootstress.h"

using namespace rootstress;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  return util::median(values);
}

/// Interquartile mean: the mean of the middle half of the samples. A
/// shared host flips between speed states within seconds, so samples are
/// often bimodal; their median then jumps between the modes from run to
/// run, while the interquartile mean moves with the mix.
double iq_mean(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t lo = n / 4;
  std::size_t hi = n - n / 4;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

// ---------------------------------------------------------------------------
// Digests: FNV-1a 64 over the bytes of every checked output.

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  void text(std::string_view s) { bytes(s.data(), s.size()); }
  template <typename T>
  void values(const std::vector<T>& vs) {
    value(vs.size());
    for (const T& v : vs) value(v);
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Leg sizes. A workload runs its own leg at kHome and the other two at
// kCompanion; --size tiny runs every leg at kTiny (the schema smoke run).

enum class Tier { kHome, kCompanion, kTiny };

/// The replay covers the two event days only: the seven RSSAC baseline
/// days would add a week of fluid-only stepping and turn the paper path
/// into a fluid benchmark (event_size then has no baseline to subtract).
struct ReplayShape {
  int vps;
  int hours;  ///< event span (48 = both 2015 events)
};

struct CampaignShape {
  int stubs;  ///< topology stub ASes per cell
  int hours;
};

struct WireShape {
  double latency_qps;  ///< fixed sub-saturation rate (RTT leg)
  double latency_s;
  double overload_qps;  ///< past the server's capacity (throughput leg)
  double overload_s;
  int overload_workers;  ///< generator workers needed to outpace the server
};

ReplayShape replay_shape(Tier tier) {
  switch (tier) {
    case Tier::kHome: return {100, 48};
    case Tier::kCompanion: return {20, 48};
    case Tier::kTiny: return {6, 12};
  }
  return {};
}

CampaignShape campaign_shape(Tier tier) {
  switch (tier) {
    case Tier::kHome: return {300, 12};
    case Tier::kCompanion: return {150, 12};
    case Tier::kTiny: return {60, 10};
  }
  return {};
}

WireShape wire_shape(Tier tier) {
  switch (tier) {
    case Tier::kHome: return {20e3, 0.5, 500e3, 0.5, 2};
    case Tier::kCompanion: return {20e3, 0.3, 500e3, 0.3, 2};
    case Tier::kTiny: return {5e3, 0.3, 500e3, 0.3, 2};
  }
  return {};
}

/// Digests pinned for the default seed (replay at its home and companion
/// sizes, campaign cold summaries). A change that alters any of them
/// changed what the paper reproduction computes, not just how fast.
constexpr std::uint64_t kDefaultSeed = 1;
struct Reference {
  Tier tier;
  const char* leg;
  const char* digest;
};
constexpr Reference kReferences[] = {
    {Tier::kHome, "replay", "89315b435868f661"},
    {Tier::kCompanion, "replay", "99e528043a737242"},
    {Tier::kHome, "campaign", "9fdbe9c3481535a0"},
    {Tier::kCompanion, "campaign", "ccd06f0531a51ddf"},
};

const char* pinned_digest(Tier tier, std::string_view leg) {
  for (const Reference& ref : kReferences) {
    if (ref.tier == tier && leg == ref.leg) return ref.digest;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Result accounting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  /// One output check; each counts once in `attempted`. The first
  /// failures are kept verbatim for the detail line.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (problems.size() < 20) problems.push_back(what);
    }
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// ---------------------------------------------------------------------------
// Replay leg: engine construction, run(), binning, the paper analyses.

sim::ScenarioConfig replay_config(std::uint64_t seed, const ReplayShape& shape,
                                  int threads, bool telemetry) {
  sim::ScenarioBuilder builder = sim::ScenarioBuilder::november_2015();
  builder.seed(seed)
      .vp_count(shape.vps)
      .threads(threads)
      .telemetry(telemetry)
      .collect_records(true)
      .collect_rssac(true)
      .enable_collector(true);
  if (shape.hours < 48) {
    builder.duration(net::SimTime::from_hours(shape.hours));
  }
  return builder.build();
}

struct ReplayRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  double bin_s = 0.0;
  double analysis_s = 0.0;
  std::vector<std::pair<std::string, double>> analysis_ms;
  std::size_t records = 0;
  std::size_t steps = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t summary_digest = 0;
  std::uint64_t record_digest = 0;
  std::uint64_t analysis_digest = 0;
  bool sane = false;
  obs::Snapshot telemetry;

  double wall_s() const { return run_s + bin_s + analysis_s; }
  /// One digest over the summary, record stream and analysis outputs.
  std::uint64_t digest() const {
    Fnv f;
    f.value(summary_digest);
    f.value(record_digest);
    f.value(analysis_digest);
    return f.h;
  }
};

ReplayRun run_replay(const sim::ScenarioConfig& config) {
  ReplayRun out;
  const auto setup_begin = Clock::now();
  sim::SimulationEngine engine(config);
  out.setup_s = seconds_since(setup_begin);

  core::EvaluationReport report;
  const std::uint64_t allocs_before = obs::allocation_count();
  const auto run_begin = Clock::now();
  report.result = engine.run();
  out.run_s = seconds_since(run_begin);
  out.run_allocs = obs::allocation_count() - allocs_before;
  const sim::SimulationResult& result = report.result;
  out.records = result.records.size();
  out.steps = static_cast<std::size_t>((config.end - config.start).ms /
                                       config.step.ms);
  out.telemetry = result.telemetry;

  const auto bin_begin = Clock::now();
  const std::size_t bins = static_cast<std::size_t>(
      (result.probe_window.end - result.probe_window.begin).ms /
      result.bin_width.ms);
  report.grids = atlas::bin_records(
      result.records, static_cast<int>(result.letter_chars.size()),
      static_cast<int>(result.vps.size()), result.probe_window.begin,
      result.bin_width, bins);
  out.bin_s = seconds_since(bin_begin);

  // The paper analyses, each timed on its own. Their outputs fold into
  // the analysis digest; the per-letter headline numbers also fill the
  // EvaluationReport that sweep::summarize digests.
  Fnv fold;
  const auto& letters = engine.deployment().letters();
  std::vector<std::pair<const anycast::LetterConfig*, int>> measured;
  for (const auto& cfg : letters) {
    const int s = result.service_index(cfg.letter);
    if (s >= 0) measured.emplace_back(&cfg, s);
  }
  report.letters.resize(measured.size());
  auto timed = [&](const char* name, const std::function<void()>& fn) {
    const auto begin = Clock::now();
    fn();
    const double s = seconds_since(begin);
    out.analysis_s += s;
    out.analysis_ms.emplace_back(name, s * 1e3);
  };

  timed("reachability", [&] {
    for (std::size_t i = 0; i < measured.size(); ++i) {
      const auto& [cfg, s] = measured[i];
      const auto& grid = report.grids[static_cast<std::size_t>(s)];
      core::LetterSummary& summary = report.letters[i];
      summary.letter = cfg->letter;
      summary.reported_sites = cfg->reported_sites;
      summary.observed_sites = analysis::observed_site_count(result.records, s);
      const auto reach = analysis::reachability_series(
          grid, cfg->letter, cfg->probe_interval_s, /*scale_for_cadence=*/true);
      std::vector<double> series(reach.successful_per_bin.begin(),
                                 reach.successful_per_bin.end());
      summary.baseline_vps = static_cast<int>(util::median(series));
      summary.min_vps = reach.min_vps;
      if (summary.baseline_vps > 0) {
        summary.worst_loss = 1.0 - static_cast<double>(summary.min_vps) /
                                       summary.baseline_vps;
      }
      fold.values(reach.successful_per_bin);
    }
  });
  timed("rtt", [&] {
    for (std::size_t i = 0; i < measured.size(); ++i) {
      analysis::RttFilter filter;
      filter.service_index = measured[i].second;
      core::LetterSummary& summary = report.letters[i];
      summary.median_rtt_quiet_ms = analysis::median_rtt_in(
          result.records, filter, net::SimTime(0), attack::kEvent1.begin);
      summary.median_rtt_event_ms = analysis::median_rtt_in(
          result.records, filter, attack::kEvent1.begin, attack::kEvent1.end);
      fold.values(analysis::median_rtt_series(result.records, filter,
                                              result.probe_window.begin,
                                              result.bin_width, bins));
    }
  });
  timed("flips", [&] {
    for (std::size_t i = 0; i < measured.size(); ++i) {
      const auto& grid =
          report.grids[static_cast<std::size_t>(measured[i].second)];
      report.letters[i].site_flips = analysis::total_site_flips(grid);
      fold.values(analysis::site_flips_per_bin(grid));
    }
  });
  timed("letter_flips", [&] {
    for (const auto& [cfg, s] : measured) {
      const auto ev = analysis::letter_flip_evidence(result, cfg->letter);
      fold.value(ev.event1_ratio);
      fold.value(ev.event2_ratio);
      fold.value(ev.uniques_day0_ratio);
      fold.value(ev.uniques_day1_ratio);
    }
  });
  timed("collateral", [&] {
    const int d = result.service_index('D');
    if (d >= 0) {
      const auto sites = analysis::collateral_sites(
          report.grids[static_cast<std::size_t>(d)], result, 'D',
          analysis::event_bins_2015(result), /*min_dip=*/0.10,
          analysis::stability_threshold(static_cast<int>(result.vps.size())));
      for (const auto& site : sites) {
        fold.value(site.site_id);
        fold.value(site.worst_fraction);
      }
    }
    for (const auto& nl : analysis::nl_query_rates(result)) {
      fold.text(nl.anonymized_label);
      fold.values(nl.normalized_qps);
    }
  });
  timed("event_size", [&] {
    const auto estimate = analysis::estimate_event_size(result);
    for (const auto& row : estimate.rows) {
      fold.value(row.day0.dq_mqs);
      fold.value(row.day1.dq_mqs);
      fold.value(row.day0.ips_m);
    }
    fold.value(estimate.upper_day0.dq_mqs);
    fold.value(estimate.query_payload_day0);
  });
  timed("route_changes", [&] {
    for (const auto& [cfg, s] : measured) {
      fold.values(analysis::route_changes_per_bin(result, cfg->letter));
      fold.values(analysis::collector_changes_per_bin(result, cfg->letter));
    }
  });
  out.analysis_digest = fold.h;

  Fnv records;
  for (const atlas::ProbeRecord& r : result.records) {
    records.value(r.vp);
    records.value(r.t_s);
    records.value(r.site_id);
    records.value(r.rtt_ms);
    records.value(r.letter_index);
    records.value(r.outcome);
    records.value(r.server);
    records.value(r.rcode);
  }
  out.record_digest = records.h;

  const sweep::RunSummary summary = sweep::summarize(config, report);
  Fnv s;
  s.text(sweep::summary_to_json(summary).dump());
  out.summary_digest = s.h;
  out.sane = out.records > 0 && summary.letters.size() == 13 &&
             summary.record_count == out.records;
  return out;
}

// ---------------------------------------------------------------------------
// Campaign leg: the policy regimes and the layered-defense playbook across
// two pulse-wave attack rates, fluid-only, one engine lane per cell.

struct CampaignPair {
  sweep::Campaign regimes;
  sweep::Campaign layered;
  std::size_t cells() const {
    return regimes.cell_count() + layered.cell_count();
  }
};

CampaignPair make_campaigns(std::uint64_t seed, const CampaignShape& shape,
                            bool telemetry) {
  resolver::PopulationConfig profile;
  profile.resolvers = 128;
  sim::ScenarioConfig base = sim::ScenarioBuilder::november_2015()
                                 .fluid_only()
                                 .topology_stubs(shape.stubs)
                                 .duration(net::SimTime::from_hours(shape.hours))
                                 .seed(seed)
                                 .threads(1)
                                 .telemetry(telemetry)
                                 .fault_schedule(
                                     fault::FaultSchedule::pulse_wave_2015())
                                 .resolver_profile(profile)
                                 .build();
  // The pulse wave carries the attack inside its window; its peak is the
  // campaign's attack-rate axis.
  const sweep::Axis rates = sweep::Axis::fault_schedule(
      {fault::FaultSchedule::pulse_wave_2015(2.5e6),
       fault::FaultSchedule::pulse_wave_2015(5e6)});
  CampaignPair pair;
  pair.regimes.name = "perfbench-regimes";
  pair.regimes.base = base;
  pair.regimes
      .add(sweep::Axis::policy({core::PolicyRegime::kAsDeployed,
                                core::PolicyRegime::kAllAbsorb,
                                core::PolicyRegime::kOracle}))
      .add(rates);
  pair.layered.name = "perfbench-layered";
  pair.layered.base = base;
  pair.layered.add(sweep::Axis::playbook({playbook::Playbook::layered_defense()}))
      .add(rates);
  return pair;
}

/// Two cell workers, not one per core: on a shared host every extra
/// thread is another chance to wait for a core someone else holds, and the
/// cold pass is timed end to end.
int campaign_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 2u));
}

struct CampaignPass {
  double wall_s = 0.0;
  std::vector<sweep::CellOutcome> cells;
  std::size_t executed = 0;
  std::size_t cache_hits = 0;
  std::vector<obs::PhaseStats> phases;
  /// Worst worker imbalance over the pass's run_campaign calls: max / mean
  /// busy milliseconds per worker within one call.
  double worker_imbalance = 0.0;
};

/// Adds `from`'s phase totals (time, allocations) into `into`, by name.
void add_phases(std::vector<obs::PhaseStats>& into,
                const std::vector<obs::PhaseStats>& from) {
  for (const obs::PhaseStats& phase : from) {
    auto it = std::find_if(into.begin(), into.end(),
                           [&](const obs::PhaseStats& p) {
                             return p.name == phase.name;
                           });
    if (it == into.end()) {
      into.push_back(phase);
    } else {
      it->total_ns += phase.total_ns;
      it->allocs += phase.allocs;
    }
  }
}

CampaignPass run_campaign_pass(const CampaignPair& pair,
                               const std::filesystem::path& cache_dir,
                               int workers, bool telemetry) {
  CampaignPass pass;
  // Busy milliseconds per executing thread of one run_campaign call (from
  // the progress callback, which the in-process executor runs on the
  // worker that ran the cell). Each call has its own pool, so the map is
  // cleared per call.
  std::map<std::thread::id, double> busy_ms;
  std::mutex busy_mutex;
  sweep::CampaignOptions options;
  options.executor.mode = sweep::ExecutorMode::kInProcess;
  options.executor.workers = workers;
  options.executor.lane_budget = workers;
  options.cache_dir = cache_dir;
  options.telemetry = telemetry;
  options.progress = [&](const std::string&, bool cached, double wall_ms) {
    if (cached) return;
    std::lock_guard<std::mutex> lock(busy_mutex);
    busy_ms[std::this_thread::get_id()] += wall_ms;
  };
  const auto begin = Clock::now();
  for (const sweep::Campaign* campaign : {&pair.regimes, &pair.layered}) {
    busy_ms.clear();
    sweep::CampaignResult result = sweep::run_campaign(*campaign, options);
    pass.executed += result.executed;
    pass.cache_hits += result.cache_hits;
    for (auto& cell : result.cells) pass.cells.push_back(std::move(cell));
    add_phases(pass.phases, result.telemetry.phases);
    double busy_max = 0.0;
    double busy_sum = 0.0;
    for (const auto& [thread, ms] : busy_ms) {
      busy_max = std::max(busy_max, ms);
      busy_sum += ms;
    }
    const int used = std::min<int>(
        workers, static_cast<int>(campaign->cell_count()));
    if (busy_sum > 0.0) {
      pass.worker_imbalance =
          std::max(pass.worker_imbalance, busy_max / (busy_sum / used));
    }
  }
  pass.wall_s = seconds_since(begin);
  return pass;
}

std::uint64_t campaign_digest(const std::vector<sweep::CellOutcome>& cells) {
  Fnv f;
  for (const sweep::CellOutcome& cell : cells) {
    f.text(cell.label);
    f.text(sweep::summary_to_json(cell.summary).dump());
  }
  return f.h;
}

struct CampaignRun {
  double setup_s = 0.0;
  CampaignPass cold;
  CampaignPass warm;
  std::uint64_t digest = 0;
};

/// What a campaign does before its first cell can run: expansion,
/// opening a fresh run cache in `cache_dir`, and keying every cell. The
/// empty cache directory is made before the clock starts, so the time
/// follows the program rather than the filesystem's mkdir.
double campaign_setup_once(const CampaignPair& pair,
                           const std::filesystem::path& cache_dir) {
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);
  const auto begin = Clock::now();
  std::vector<sweep::CampaignCell> cells = sweep::expand(pair.regimes);
  for (auto& cell : sweep::expand(pair.layered)) {
    cells.push_back(std::move(cell));
  }
  sweep::RunCache cache(cache_dir);
  std::vector<std::uint64_t> keys;
  for (const sweep::CampaignCell& cell : cells) {
    keys.push_back(cache.key(cell.config));
  }
  return seconds_since(begin);
}

CampaignRun run_campaign_leg(const CampaignPair& pair,
                             const std::filesystem::path& cache_dir,
                             int workers, bool telemetry, Report& report) {
  CampaignRun run;
  run.setup_s = campaign_setup_once(pair, cache_dir);
  run.cold = run_campaign_pass(pair, cache_dir, workers, telemetry);
  run.warm = run_campaign_pass(pair, cache_dir, workers, telemetry);
  run.digest = campaign_digest(run.cold.cells);
  const std::size_t n = pair.cells();
  report.check(run.cold.executed == n && run.cold.cells.size() == n,
               "campaign: cold pass did not execute every cell");
  for (std::size_t i = 0; i < run.cold.cells.size(); ++i) {
    const bool same = i < run.warm.cells.size() &&
                      run.warm.cells[i].from_cache &&
                      run.warm.cells[i].summary == run.cold.cells[i].summary;
    report.check(same, "campaign: warm cell '" + run.cold.cells[i].label +
                           "' differs from its cold summary");
  }
  report.check(run.warm.executed == 0 && run.warm.cache_hits == n,
               "campaign: warm pass executed cells");
  std::filesystem::remove_all(cache_dir);
  return run;
}

// ---------------------------------------------------------------------------
// Wire leg: one WireServer thread, one open-loop generator worker, RRL off.

struct WireRun {
  double setup_s = 0.0;
  netio::GeneratorReport report;
  std::uint64_t server_received = 0;
  std::uint64_t server_cache_hits = 0;
  double lateness = 0.0;  ///< 1 - achieved / requested
  bool ok = false;
  std::string error;
};

netio::WireServerConfig wire_server_config() {
  netio::WireServerConfig config;
  config.rrl.enabled = false;
  config.capacity_qps = 0.0;
  return config;
}

netio::GeneratorConfig wire_generator_config(std::uint64_t seed,
                                             net::Endpoint target, double qps,
                                             double duration_s, int workers) {
  netio::GeneratorConfig config;
  config.targets = {target};
  config.workers = workers;
  config.duration_s = duration_s;
  config.envelope = netio::RateEnvelope::constant(qps);
  config.spoof_sources = true;
  config.spoof.seed = seed;
  // Loopback round trips take ~0.1 ms; 50 ms collects every straggler.
  config.drain_grace_s = 0.05;
  // 10 us RTT bins to 200 ms: loopback medians sit near 0.1 ms.
  config.rtt_bin_ms = 0.01;
  config.rtt_bins = 20000;
  return config;
}

/// Server start plus generator construction, then teardown.
double wire_setup_once(std::uint64_t seed, std::string* error) {
  const auto begin = Clock::now();
  netio::WireServer server(wire_server_config());
  if (!server.start(error)) return -1.0;
  netio::LoadGenerator generator(
      wire_generator_config(seed, server.endpoint(), 1e3, 0.1, 1));
  const double s = seconds_since(begin);
  server.stop();
  return s;
}

WireRun run_wire(std::uint64_t seed, double qps, double duration_s,
                 int workers = 1) {
  WireRun run;
  const auto begin = Clock::now();
  netio::WireServer server(wire_server_config());
  if (!server.start(&run.error)) return run;
  netio::LoadGenerator generator(
      wire_generator_config(seed, server.endpoint(), qps, duration_s, workers));
  run.setup_s = seconds_since(begin);
  run.report = generator.run(&run.error);
  server.stop();
  run.server_received = server.stats().received.load();
  run.server_cache_hits = server.stats().cache_hits.load();
  run.lateness =
      run.report.requested_qps > 0.0
          ? std::max(0.0, 1.0 - run.report.achieved_qps /
                                    run.report.requested_qps)
          : 1.0;
  run.ok = run.error.empty() && run.report.sent > 0;
  return run;
}

/// The latency leg is valid only if the generator kept to its schedule:
/// RTTs start at the actual send, so a generator that fell behind would
/// hide queueing and read as fast. On the overload leg a lagging
/// generator can only understate capacity; how far it outpaced the server
/// is reported as the overload factor (offered / answered), not checked.
constexpr double kMaxLateness = 0.05;
/// A latency leg the generator invalidated (its thread stalled on a
/// shared host) is run again, up to this many attempts in all; only the
/// last attempt is checked and measured.
constexpr int kWireAttempts = 3;

WireRun run_latency_leg(std::uint64_t seed, double qps, double duration_s,
                        int* retries) {
  WireRun run;
  for (int attempt = 0; attempt < kWireAttempts; ++attempt) {
    if (attempt > 0) ++*retries;
    run = run_wire(seed, qps, duration_s);
    if (!run.ok || run.lateness <= kMaxLateness) break;
  }
  return run;
}

double overload_factor(const WireRun& run) {
  return static_cast<double>(run.report.sent) /
         static_cast<double>(std::max<std::uint64_t>(run.report.answered, 1));
}

void check_wire(const WireRun& run, bool latency_leg, Report& report) {
  report.check(run.ok, "wire: leg did not run: " + run.error);
  if (!run.ok) return;
  report.check(run.report.unmatched == 0, "wire: unmatched responses");
  if (latency_leg) {
    report.check(run.lateness <= kMaxLateness,
                 "wire: generator fell behind (lateness " +
                     std::to_string(run.lateness) + ")");
    report.check(run.report.answered_fraction >= 0.99,
                 "wire: sub-saturation leg left queries unanswered");
  }
}

// ---------------------------------------------------------------------------
// Micro-timings with a fixed clock (traced run only).

/// Median ns per call of `fn` over `batches` batches of `per_batch` calls.
double ns_per_call(const std::function<void()>& fn, int per_batch,
                   int batches = 9) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const auto begin = Clock::now();
    for (int i = 0; i < per_batch; ++i) fn();
    samples.push_back(seconds_since(begin) * 1e9 / per_batch);
  }
  return median(samples);
}

double handle_datagram_ns(netio::WireServerConfig config, bool* answered) {
  netio::WireServer server(std::move(config));
  dns::Message query = dns::Message::query(
      0x4242, *dns::Name::parse("www.336901.com"), dns::RrType::kA,
      dns::RrClass::kIn);
  dns::add_edns(query, 4096, /*dnssec_ok=*/false,
                dns::ClientSubnet{net::Ipv4Addr(198, 51, 100, 7), 32, 0});
  const std::vector<std::uint8_t> wire = dns::encode(query);
  std::vector<std::uint8_t> out(netio::kMaxPacketBytes);
  std::size_t last = 0;
  const double ns = ns_per_call(
      [&] {
        last = server.handle_datagram(wire, net::Ipv4Addr(127, 0, 0, 1),
                                      net::SimTime(0), out);
      },
      20000);
  *answered = last > 0;
  return ns;
}

// ---------------------------------------------------------------------------
// Per-layer helpers.

const obs::PhaseStats* find_phase(const std::vector<obs::PhaseStats>& phases,
                                  std::string_view name) {
  for (const auto& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

double counter_sum(const obs::Snapshot& snapshot, std::string_view name) {
  double total = 0.0;
  for (const auto& m : snapshot.metrics) {
    if (m.name == name) total += m.value;
  }
  return total;
}

obs::JsonValue sample_array(const std::vector<double>& values) {
  obs::JsonValue array = obs::JsonValue::array();
  for (const double v : values) array.push_back(obs::JsonValue(v));
  return array;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Harness.

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::filesystem::path scratch;
  std::string git_sha = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--size") {
      args.tiny = value == "tiny";
    } else if (key == "--scratch") {
      args.scratch = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else {
      return std::nullopt;
    }
  }
  if (args.workload != "replay" && args.workload != "campaign" &&
      args.workload != "wire") {
    return std::nullopt;
  }
  if (args.scratch.empty()) return std::nullopt;
  return args;
}

constexpr const char* kLegs[] = {"replay", "campaign", "wire"};

class Bench {
 public:
  explicit Bench(Args args)
      : args_(std::move(args)),
        replay_config_(replay_config(args_.seed, replay_shape(tier("replay")),
                                     /*threads=*/1, /*telemetry=*/false)),
        campaigns_(make_campaigns(args_.seed, campaign_shape(tier("campaign")),
                                  /*telemetry=*/false)),
        wire_(wire_shape(tier("wire"))) {}

  Tier tier(std::string_view leg) const {
    if (args_.tiny) return Tier::kTiny;
    return leg == args_.workload ? Tier::kHome : Tier::kCompanion;
  }
  bool home(std::string_view leg) const { return leg == args_.workload; }

  /// Any seed: every repeat reproduces the first digest of its leg.
  /// Default seed: the digest equals the pinned reference.
  void check_digest(std::string_view leg, std::uint64_t digest) {
    auto [it, inserted] = first_digest_.emplace(std::string(leg), digest);
    if (!inserted) {
      report_.check(digest == it->second,
                    std::string(leg) + ": digest changed between repeats");
    }
    const char* pinned = pinned_digest(tier(leg), leg);
    if (args_.seed == kDefaultSeed && pinned != nullptr) {
      report_.check(hex(digest) == pinned, std::string(leg) + ": digest " +
                                               hex(digest) + " != pinned " +
                                               pinned);
    }
  }

  // -- untraced run: end-to-end metrics ------------------------------------

  /// Interleaves the legs in rounds until --seconds is spent: each round
  /// runs the workload's own leg (several times where one repetition is
  /// short) and one repetition of each companion leg, so slow spells of a
  /// shared host fall on every metric alike.
  void run_end_to_end() {
    // One untimed repetition of the workload's own leg first: it warms the
    // allocator and sockets, and the peak resident set is read right
    // after it, before the companion legs add their own.
    leg_once(args_.workload, /*record=*/false);
    const double rss_mb = peak_rss_mb();

    const int min_rounds = args_.tiny ? 1 : 5;
    const auto begin = Clock::now();
    int rounds = 0;
    while (rounds < min_rounds ||
           (!args_.tiny && seconds_since(begin) < args_.seconds)) {
      for (const char* leg : kLegs) {
        const int reps = home(leg) && !args_.tiny ? home_reps(leg) : 1;
        for (int r = 0; r < reps; ++r) leg_once(leg, /*record=*/true);
      }
      extra_setup_samples();
      ++rounds;
    }

    // Set-up is sampled many times per run and is unimodal: its median.
    report_.metric("setup_s", median(samples_["setup_s"]), "s");
    report_.metric("peak_rss_mb", rss_mb, "MB");
    for (const auto& [name, unit] :
         std::vector<std::pair<const char*, const char*>>{
             {"replay_wall_s", "s"},
             {"replay_records_per_s", "1/s"},
             {"campaign_cells_per_min", "1/min"},
             {"campaign_warm_s", "s"},
             {"wire_answered_qps", "1/s"},
             {"wire_rtt_p50_ms", "ms"}}) {
      report_.metric(name, iq_mean(samples_[name]), unit);
    }
    detail_.set("rounds", obs::JsonValue(rounds));
    detail_.set("wire_max_lateness", obs::JsonValue(wire_max_lateness_));
    detail_.set("wire_send_shortfall", obs::JsonValue(wire_send_shortfall_));
    detail_.set("wire_leg_retries", obs::JsonValue(wire_retries_));
    // Every sample behind the reported values, for spread analysis.
    for (const auto& [name, values] : samples_) {
      detail_.set(name, sample_array(values));
    }
  }

  static int home_reps(std::string_view leg) {
    return leg == "campaign" ? 2 : 1;
  }

  void leg_once(std::string_view leg, bool record) {
    if (leg == "replay") replay_once(record);
    if (leg == "campaign") campaign_once(record);
    if (leg == "wire") wire_once(record);
  }

  void replay_once(bool record) {
    const ReplayRun run = run_replay(replay_config_);
    report_.check(run.sane, "replay: implausible output");
    check_digest("replay", run.digest());
    if (!record) return;
    if (home("replay")) samples_["setup_s"].push_back(run.setup_s);
    samples_["replay_wall_s"].push_back(run.wall_s());
    samples_["replay_records_per_s"].push_back(
        static_cast<double>(run.records) / run.run_s);
  }

  void campaign_once(bool record) {
    const CampaignRun run =
        run_campaign_leg(campaigns_, campaign_cache(), campaign_workers(),
                         /*telemetry=*/false, report_);
    check_digest("campaign", run.digest);
    if (!record) return;
    if (home("campaign")) samples_["setup_s"].push_back(run.setup_s);
    samples_["campaign_cells_per_min"].push_back(
        static_cast<double>(campaigns_.cells()) / (run.cold.wall_s / 60.0));
    samples_["campaign_warm_s"].push_back(run.warm.wall_s);
  }

  void wire_once(bool record) {
    const std::uint64_t seed = args_.seed + wire_legs_++;
    const WireRun latency = run_latency_leg(seed, wire_.latency_qps,
                                            wire_.latency_s, &wire_retries_);
    check_wire(latency, /*latency_leg=*/true, report_);
    const WireRun overload = run_wire(seed, wire_.overload_qps,
                                      wire_.overload_s, wire_.overload_workers);
    check_wire(overload, /*latency_leg=*/false, report_);
    wire_max_lateness_ = std::max(
        {wire_max_lateness_, latency.lateness, overload.lateness});
    wire_send_shortfall_ +=
        latency.report.send_shortfall + overload.report.send_shortfall;
    samples_["wire_latency_leg_lateness"].push_back(latency.lateness);
    samples_["wire_overload_leg_lateness"].push_back(overload.lateness);
    samples_["wire_overload_factor"].push_back(overload_factor(overload));
    if (!record) return;
    if (home("wire")) {
      samples_["setup_s"].push_back(latency.setup_s);
      samples_["setup_s"].push_back(overload.setup_s);
    }
    samples_["wire_rtt_p50_ms"].push_back(latency.report.rtt_p50_ms);
    samples_["wire_answered_qps"].push_back(
        static_cast<double>(overload.report.answered) /
        overload.report.duration_s);
  }

  /// Set-up is short next to a repetition of its leg: take more samples
  /// of it than the repetitions alone give.
  void extra_setup_samples() {
    if (args_.tiny) return;
    std::vector<double>& setup = samples_["setup_s"];
    if (args_.workload == "replay") {
      for (int i = 0; i < 2; ++i) {
        const auto begin = Clock::now();
        const sim::SimulationEngine engine(replay_config_);
        setup.push_back(seconds_since(begin));
      }
    } else if (args_.workload == "campaign") {
      for (int i = 0; i < 10; ++i) {
        setup.push_back(campaign_setup_once(campaigns_, campaign_cache()));
      }
      std::filesystem::remove_all(campaign_cache());
    } else {
      for (int i = 0; i < 10; ++i) {
        std::string error;
        const double s = wire_setup_once(args_.seed, &error);
        report_.check(s >= 0.0, "wire: server did not start: " + error);
        if (s >= 0.0) setup.push_back(s);
      }
    }
  }

  std::filesystem::path campaign_cache() const {
    return args_.scratch / "campaign-cache";
  }

  // -- traced run: per-layer metrics ----------------------------------------

  void run_per_layer() {
    traced_replay();
    traced_campaign();
    traced_wire();
    micro_timings();
    report_.metric("failed_fraction",
                   report_.attempted == 0
                       ? 0.0
                       : static_cast<double>(report_.failed) /
                             static_cast<double>(report_.attempted),
                   "ratio");
  }

  /// ms (and optionally allocations) per simulated step of each phase.
  void phase_metrics(const obs::Snapshot& telemetry, double steps,
                     const std::vector<const char*>& names,
                     const std::string& suffix, bool allocs) {
    for (const char* name : names) {
      const obs::PhaseStats* p = find_phase(telemetry.phases, name);
      report_.metric(std::string("sim.") + name + ".ms_per_step" + suffix,
                     p ? static_cast<double>(p->total_ns) / 1e6 / steps : 0.0,
                     "ms");
      if (allocs) {
        report_.metric(std::string("sim.") + name + ".allocs_per_step",
                       p ? static_cast<double>(p->allocs) / steps : 0.0,
                       "count");
      }
    }
  }

  void traced_replay() {
    const ReplayShape shape = replay_shape(tier("replay"));
    const ReplayRun plain = run_replay(replay_config_);
    const ReplayRun traced = run_replay(replay_config(args_.seed, shape, 1, true));
    const ReplayRun plain4 = run_replay(replay_config(args_.seed, shape, 4, false));
    const ReplayRun traced4 = run_replay(replay_config(args_.seed, shape, 4, true));
    for (const ReplayRun* run : {&plain, &traced, &plain4, &traced4}) {
      report_.check(run->sane, "replay: implausible output");
      check_digest("replay", run->digest());
    }
    // The library's one-call evaluation must agree with the benchmark's
    // reassembly of it.
    {
      const sweep::RunSummary summary = sweep::summarize(
          replay_config_, core::evaluate_scenario(replay_config_));
      Fnv f;
      f.text(sweep::summary_to_json(summary).dump());
      report_.check(f.h == plain.summary_digest,
                    "replay: evaluate_scenario summary differs");
    }

    const double steps = static_cast<double>(traced.steps);
    phase_metrics(traced.telemetry, steps, {"atlas-probing", "rssac-accounting"},
                  "", true);
    for (const char* name : {"topology-build", "cleaning"}) {
      const obs::PhaseStats* p = find_phase(traced.telemetry.phases, name);
      report_.metric(std::string("sim.") + name + ".ms",
                     p ? static_cast<double>(p->total_ns) / 1e6 : 0.0, "ms");
      report_.metric(std::string("sim.") + name + ".allocs",
                     p ? static_cast<double>(p->allocs) : 0.0, "count");
    }
    // Share of run() wall time the phase table accounts for: self times
    // never double-count nested phases; topology-build is construction.
    double covered_ns = 0.0;
    for (const auto& p : traced.telemetry.phases) {
      if (p.name != "topology-build") {
        covered_ns += static_cast<double>(p.self_ns);
      }
    }
    report_.metric("sim.phase_coverage", covered_ns / 1e9 / traced.run_s,
                   "ratio");
    report_.metric("sim.run_allocs_per_record",
                   static_cast<double>(plain.run_allocs) /
                       static_cast<double>(plain.records),
                   "count");
    report_.metric("obs.trace_overhead_pct",
                   (traced.run_s / plain.run_s - 1.0) * 100.0, "%");
    phase_metrics(traced4.telemetry, steps, {"atlas-probing", "fluid-stepping"},
                  "_4lane", false);
    report_.metric("parallel.replay_speedup_4lane", plain.run_s / plain4.run_s,
                   "x");
    report_.metric("atlas.bin_records_ms", plain.bin_s * 1e3, "ms");
    for (const auto& [name, ms] : plain.analysis_ms) {
      report_.metric("analysis." + name + "_ms", ms, "ms");
    }
    report_.metric("analysis.ms", plain.analysis_s * 1e3, "ms");
  }

  void traced_campaign() {
    const CampaignPair pair =
        make_campaigns(args_.seed, campaign_shape(tier("campaign")), true);
    const int workers = campaign_workers();
    const CampaignRun run = run_campaign_leg(pair, campaign_cache(), workers,
                                             true, report_);
    check_digest("campaign", run.digest);
    const CampaignRun serial =
        run_campaign_leg(pair, campaign_cache(), 1, true, report_);
    check_digest("campaign", serial.digest);

    std::vector<double> cell_ms;
    for (const auto& cell : run.cold.cells) cell_ms.push_back(cell.wall_ms);
    report_.metric("sweep.cell_ms_p50", median(cell_ms), "ms");
    report_.metric("sweep.cell_ms_max",
                   *std::max_element(cell_ms.begin(), cell_ms.end()), "ms");
    report_.metric("sweep.worker_imbalance", run.cold.worker_imbalance,
                   "ratio");
    report_.metric("sweep.warm_ms_per_cell",
                   run.warm.wall_s * 1e3 / static_cast<double>(pair.cells()),
                   "ms");
    for (const char* phase : {"expand", "cache-probe", "execute", "aggregate"}) {
      const obs::PhaseStats* p = find_phase(run.cold.phases, phase);
      report_.metric(std::string("sweep.") + phase + "_ms",
                     p ? static_cast<double>(p->total_ns) / 1e6 : 0.0, "ms");
    }
    report_.metric("parallel.campaign_speedup",
                   serial.cold.wall_s / run.cold.wall_s, "x");

    // Engine phases of the campaign's cells: each cell re-run standalone
    // with telemetry on, its summary checked against the campaign's.
    std::vector<sweep::CampaignCell> cells = sweep::expand(pair.regimes);
    for (auto& cell : sweep::expand(pair.layered)) {
      cells.push_back(std::move(cell));
    }
    obs::Snapshot phases;  // phase totals summed over the cells
    double steps = 0.0;
    double reselects = 0.0;
    double route_changes = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const sim::ScenarioConfig& config = cells[i].config;
      const core::EvaluationReport report = core::evaluate_scenario(config);
      sweep::RunSummary summary = sweep::summarize(config, report);
      summary.config_hash = run.cold.cells[i].summary.config_hash;
      report_.check(summary == run.cold.cells[i].summary,
                    "campaign: standalone cell '" + cells[i].label +
                        "' differs from the campaign's");
      add_phases(phases.phases, report.result.telemetry.phases);
      steps += static_cast<double>((config.end - config.start).ms /
                                   config.step.ms);
      reselects +=
          counter_sum(report.result.telemetry, "bgp.incremental_reselects");
      route_changes += static_cast<double>(summary.route_changes);
    }
    phase_metrics(phases, steps,
                  {"fluid-stepping", "defense-policy", "bgp-convergence",
                   "resolver-population", "fault-injection"},
                  "", true);
    const double n = static_cast<double>(cells.size());
    report_.metric("bgp.route_changes_per_cell", route_changes / n, "count");
    report_.metric("bgp.incremental_reselects", reselects / n, "count");
  }

  void traced_wire() {
    std::vector<double> p99;
    std::vector<double> overload_factors;
    double lateness = 0.0;
    std::uint64_t shortfall = 0;
    std::uint64_t lost = 0;
    std::uint64_t received = 0;
    std::uint64_t hits = 0;
    for (int i = 0; i < 3; ++i) {
      const WireRun latency = run_latency_leg(
          args_.seed + i, wire_.latency_qps, wire_.latency_s, &wire_retries_);
      check_wire(latency, true, report_);
      const WireRun overload =
          run_wire(args_.seed + i, wire_.overload_qps, wire_.overload_s,
                   wire_.overload_workers);
      check_wire(overload, false, report_);
      p99.push_back(latency.report.rtt_p99_ms);
      overload_factors.push_back(overload_factor(overload));
      lateness = std::max({lateness, latency.lateness, overload.lateness});
      shortfall += latency.report.send_shortfall + overload.report.send_shortfall;
      lost += overload.report.lost;
      received += overload.server_received;
      hits += overload.server_cache_hits;
    }
    report_.metric("wire_rtt_p99_ms", median(p99), "ms");
    report_.metric("netio.generator_lateness", lateness, "ratio");
    report_.metric("netio.send_shortfall", static_cast<double>(shortfall),
                   "count");
    report_.metric("netio.lost", static_cast<double>(lost), "count");
    report_.metric("netio.leg_retries", static_cast<double>(wire_retries_),
                   "count");
    report_.metric("netio.overload_factor", median(overload_factors), "x");
    report_.metric("netio.cache_hit_ratio",
                   received == 0 ? 0.0
                                 : static_cast<double>(hits) /
                                       static_cast<double>(received),
                   "ratio");
  }

  void micro_timings() {
    bool answered = false;
    report_.metric("netio.handle_datagram_ns.cache_hit",
                   handle_datagram_ns(wire_server_config(), &answered), "ns");
    report_.check(answered, "netio: cached datagram path answered nothing");
    netio::WireServerConfig miss = wire_server_config();
    miss.cache_responses = false;
    report_.metric("netio.handle_datagram_ns.cache_miss",
                   handle_datagram_ns(miss, &answered), "ns");
    report_.check(answered, "netio: uncached datagram path answered nothing");
    netio::WireServerConfig rrl = wire_server_config();
    rrl.rrl.enabled = true;
    report_.metric("netio.handle_datagram_ns.rrl",
                   handle_datagram_ns(rrl, &answered), "ns");

    dns::RrlConfig no_rrl;
    no_rrl.enabled = false;
    dns::RootServer server('K', "AMS", 1, no_rrl);
    const std::optional<dns::Message> reply = server.answer(
        dns::make_chaos_query(0x5250), net::Ipv4Addr(192, 0, 2, 1),
        net::SimTime(0));
    report_.check(reply.has_value(), "dns: CHAOS query unanswered");
    if (!reply) return;
    std::vector<std::uint8_t> wire;
    report_.metric("dns.chaos_encode_ns",
                   ns_per_call([&] { wire = dns::encode(*reply); }, 20000),
                   "ns");
    std::optional<dns::Message> decoded;
    report_.metric("dns.chaos_decode_ns",
                   ns_per_call([&] { decoded = dns::decode(wire); }, 20000),
                   "ns");
    report_.check(
        decoded.has_value() && decoded->answers.size() == reply->answers.size(),
        "dns: CHAOS reply did not round-trip");
  }

  // -- output -----------------------------------------------------------------

  int finish() {
    obs::JsonValue host = obs::JsonValue::object();
    host.set("nproc", obs::JsonValue(static_cast<int>(
                          std::thread::hardware_concurrency())));
    host.set("cpu", obs::JsonValue(cpu_model()));
    host.set("compiler", obs::JsonValue(PERFBENCH_COMPILER));
    host.set("build_type", obs::JsonValue(PERFBENCH_BUILD_TYPE));
    host.set("git_sha", obs::JsonValue(args_.git_sha));
    host.set("replay_lanes", obs::JsonValue(1));
    host.set("campaign_workers", obs::JsonValue(campaign_workers()));
    host.set("campaign_lanes_per_cell", obs::JsonValue(1));
    host.set("wire_server_threads", obs::JsonValue(1));
    host.set("wire_generator_workers_latency", obs::JsonValue(1));
    host.set("wire_generator_workers_overload",
             obs::JsonValue(wire_.overload_workers));
    for (const char* leg : kLegs) {
      if (auto it = first_digest_.find(leg); it != first_digest_.end()) {
        detail_.set(std::string(leg) + "_digest", obs::JsonValue(hex(it->second)));
      }
    }
    obs::JsonValue head = obs::JsonValue::object();
    head.set("host", std::move(host));
    head.set("detail", std::move(detail_));
    obs::JsonValue problems = obs::JsonValue::array();
    for (const auto& p : report_.problems) problems.push_back(obs::JsonValue(p));
    head.set("problems", std::move(problems));
    std::printf("%s\n", head.dump().c_str());

    bool finite = true;
    obs::JsonValue metrics = obs::JsonValue::object();
    for (const Metric& m : report_.metrics) {
      if (!std::isfinite(m.value)) {
        finite = false;
        std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                     m.name.c_str());
        continue;
      }
      obs::JsonValue entry = obs::JsonValue::object();
      entry.set("value", obs::JsonValue(m.value));
      entry.set("unit", obs::JsonValue(m.unit));
      metrics.set(m.name, std::move(entry));
    }
    obs::JsonValue result = obs::JsonValue::object();
    result.set("correct", obs::JsonValue(report_.failed == 0 && finite));
    result.set("attempted", obs::JsonValue(report_.attempted));
    result.set("failed", obs::JsonValue(report_.failed));
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return 0;
  }

 private:
  Args args_;
  sim::ScenarioConfig replay_config_;
  CampaignPair campaigns_;
  WireShape wire_;
  Report report_;
  obs::JsonValue detail_ = obs::JsonValue::object();
  std::map<std::string, std::uint64_t> first_digest_;
  std::map<std::string, std::vector<double>> samples_;
  std::uint64_t wire_legs_ = 0;
  int wire_retries_ = 0;
  double wire_max_lateness_ = 0.0;
  std::uint64_t wire_send_shortfall_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload replay|campaign|wire --seed N "
                 "--seconds S --trace 0|1 --scratch DIR [--size full|tiny] "
                 "[--git-sha SHA]\n");
    return 2;
  }
  std::filesystem::create_directories(args->scratch);
  Bench bench(*args);
  if (args->trace) {
    bench.run_per_layer();
  } else {
    bench.run_end_to_end();
  }
  return bench.finish();
}
