// End-to-end telemetry: the 2015 event scenario must leave an observable
// record — withdraw/restore trace events for the letters that withdrew,
// metrics consistent with the run, and a telemetry JSON export that
// parses back.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "core/report_writer.h"
#include "obs/json.h"
#include "obs/runtime.h"
#include "sim/engine.h"
#include "sim/scenario_builder.h"

namespace rootstress {
namespace {

sim::ScenarioConfig small_event_scenario() {
  // Event 1 only (06:50-09:30 of day 0) with no probing/collector: cheap
  // enough to run per test process, still heavy enough that attacked
  // letters overload and their policies withdraw sites.
  sim::ScenarioConfig config =
      sim::ScenarioBuilder::november_2015().vp_count(16).build();
  config.end = net::SimTime::from_hours(14);
  config.collect_records = false;
  config.enable_collector = false;
  config.collect_rssac = false;
  return config;
}

class TelemetryRun : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new sim::SimulationEngine(small_event_scenario());
    result_ = new sim::SimulationResult(engine_->run());
  }
  static void TearDownTestSuite() {
    delete result_;
    delete engine_;
    result_ = nullptr;
    engine_ = nullptr;
  }

  static sim::SimulationEngine* engine_;
  static sim::SimulationResult* result_;
};

sim::SimulationEngine* TelemetryRun::engine_ = nullptr;
sim::SimulationResult* TelemetryRun::result_ = nullptr;

TEST_F(TelemetryRun, WithdrawersEmitWithdrawAndRestoreEvents) {
  obs::Runtime* obs = engine_->telemetry_runtime();
  ASSERT_NE(obs, nullptr);
  std::set<char> withdrew, restored, bgp_down;
  for (const auto& event : obs->trace().events()) {
    switch (event.type) {
      case obs::TraceEventType::kSiteWithdraw:
        withdrew.insert(event.letter);
        break;
      case obs::TraceEventType::kSiteRestore:
        restored.insert(event.letter);
        break;
      case obs::TraceEventType::kBgpSessionFailure:
        bgp_down.insert(event.letter);
        break;
      default:
        break;
    }
  }
  // E and G withdraw by policy during the event (§2.2 strategies); their
  // announcements tear BGP sessions down, and they come back afterwards.
  EXPECT_TRUE(withdrew.count('E')) << "E never withdrew";
  EXPECT_TRUE(withdrew.count('G')) << "G never withdrew";
  EXPECT_TRUE(bgp_down.count('E'));
  EXPECT_TRUE(bgp_down.count('G'));
  EXPECT_TRUE(restored.count('E') || restored.count('G'))
      << "no withdrawer ever restored";
}

TEST_F(TelemetryRun, MetricsMatchRunShape) {
  const obs::Snapshot& snap = result_->telemetry;
  ASSERT_FALSE(snap.empty());

  const obs::MetricSample* steps =
      snap.find_metric("sim.steps{component=engine}");
  ASSERT_NE(steps, nullptr);
  const auto expected_steps =
      (result_->end - result_->start).ms / net::SimTime::from_seconds(60).ms;
  EXPECT_DOUBLE_EQ(steps->value, static_cast<double>(expected_steps));

  // Withdrawal counters agree with the trace-derived expectation.
  const obs::MetricSample* e_withdrawals =
      snap.find_metric("site.withdrawals{letter=E}");
  ASSERT_NE(e_withdrawals, nullptr);
  EXPECT_GE(e_withdrawals->value, 1.0);

  // Attacked letters saturate their queues at some point.
  const obs::MetricSample* sat =
      snap.find_metric("queue.saturated_steps{letter=E}");
  ASSERT_NE(sat, nullptr);
  EXPECT_GT(sat->value, 0.0);

  // The per-letter utilization histogram saw one observation per site
  // per step.
  const obs::MetricSample* util =
      snap.find_metric("queue.utilization{letter=E}");
  ASSERT_NE(util, nullptr);
  EXPECT_GT(util->value, 0.0);
  EXPECT_FALSE(util->bins.empty());

  // Phases of the engine loop all showed up.
  std::set<std::string> phase_names;
  for (const auto& phase : snap.phases) phase_names.insert(phase.name);
  for (const char* expected :
       {"topology-build", "fluid-stepping", "defense-policy",
        "bgp-convergence", "cleaning"}) {
    EXPECT_TRUE(phase_names.count(expected)) << "missing phase " << expected;
  }
}

TEST_F(TelemetryRun, TelemetryJsonRoundTrips) {
  const std::string text = core::telemetry_json(result_->telemetry);
  const auto parsed = obs::json_parse(text);
  ASSERT_TRUE(parsed.has_value()) << text.substr(0, 200);

  const obs::JsonValue* metrics = parsed->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->size(), result_->telemetry.metrics.size());
  bool saw_steps = false;
  for (std::size_t i = 0; i < metrics->size(); ++i) {
    const obs::JsonValue& m = (*metrics)[i];
    ASSERT_NE(m.find("name"), nullptr);
    ASSERT_NE(m.find("kind"), nullptr);
    if (m.find("name")->as_string() == "sim.steps") saw_steps = true;
  }
  EXPECT_TRUE(saw_steps);

  const obs::JsonValue* phases = parsed->find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_EQ(phases->size(), result_->telemetry.phases.size());

  const obs::JsonValue* trace = parsed->find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_NE(trace->find("emitted"), nullptr);
  EXPECT_GT(trace->find("emitted")->as_number(), 0.0);
  ASSERT_NE(trace->find("dropped"), nullptr);

  // The flight recorder rides the same export.
  const obs::JsonValue* timeline = parsed->find("timeline");
  ASSERT_NE(timeline, nullptr);
  EXPECT_GT(timeline->find("bins")->as_number(), 0.0);
  EXPECT_GT(timeline->find("series")->size(), 0u);
}

TEST_F(TelemetryRun, TimelineRecordsLetterSeriesAndAttackSpans) {
  const obs::TimelineData& tl = result_->telemetry.timeline;
  ASSERT_FALSE(tl.empty());
  EXPECT_GT(tl.bins, 0u);

  // Per-letter answered fraction exists and stays a fraction.
  const obs::TimelineSeries* answered = tl.find("letter.answered_fraction");
  ASSERT_NE(answered, nullptr);
  bool sampled = false;
  for (std::size_t b = 0; b < tl.bins; ++b) {
    const double v = answered->value(b);
    if (std::isnan(v)) continue;
    sampled = true;
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_TRUE(sampled);

  // Load series and announce state are recorded per letter and per site.
  EXPECT_NE(tl.find("letter.offered_qps"), nullptr);
  EXPECT_NE(tl.find("letter.served_qps"), nullptr);
  EXPECT_NE(tl.find("letter.announced_sites"), nullptr);
  EXPECT_NE(tl.find("site.answered_fraction"), nullptr);
  EXPECT_NE(tl.find("site.announce_state"), nullptr);

  // The attack schedule shows up as labeled spans.
  bool saw_attack_span = false;
  for (const obs::TimelineSpan& span : tl.spans) {
    if (span.category == "attack") saw_attack_span = true;
  }
  EXPECT_TRUE(saw_attack_span);
}

TEST(TraceOverflow, DropsAreCountedExposedAsMetricAndExported) {
  obs::Runtime runtime(/*trace_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    runtime.event(obs::TraceEventType::kCatchmentFlip, net::SimTime(i), 'K',
                  "K-AMS", "flip", 1.0);
  }
  const obs::Snapshot snap = runtime.snapshot(net::SimTime(10));
  EXPECT_EQ(snap.trace.emitted, 10u);
  EXPECT_EQ(snap.trace.dropped, 6u);
  EXPECT_EQ(snap.trace.buffered, 4u);

  // Ring overflow is visible in the metrics surface, not just TraceStats.
  const obs::MetricSample* dropped =
      snap.find_metric("trace.dropped_events{component=obs}");
  ASSERT_NE(dropped, nullptr);
  EXPECT_DOUBLE_EQ(dropped->value, 6.0);
  const obs::MetricSample* emitted =
      snap.find_metric("trace.emitted_events{component=obs}");
  ASSERT_NE(emitted, nullptr);
  EXPECT_DOUBLE_EQ(emitted->value, 10.0);

  // ... and in the telemetry JSON export.
  const auto parsed = obs::json_parse(core::telemetry_json(snap));
  ASSERT_TRUE(parsed.has_value());
  const obs::JsonValue* trace = parsed->find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_DOUBLE_EQ(trace->find("dropped")->as_number(), 6.0);
  ASSERT_NE(parsed->find("profiler_slices_dropped"), nullptr);
}

TEST(TelemetryOff, DisabledTelemetryLeavesResultEmptyAndIdentical) {
  sim::ScenarioConfig config = small_event_scenario();
  config.end = net::SimTime::from_hours(2);  // quiet prefix is enough here
  config.telemetry = false;
  sim::SimulationEngine off_engine(config);
  EXPECT_EQ(off_engine.telemetry_runtime(), nullptr);
  const auto off = off_engine.run();
  EXPECT_TRUE(off.telemetry.empty());

  config.telemetry = true;
  sim::SimulationEngine on_engine(config);
  const auto on = on_engine.run();
  EXPECT_FALSE(on.telemetry.empty());

  // Telemetry is write-only: the simulation itself is bit-identical.
  ASSERT_EQ(off.route_changes.size(), on.route_changes.size());
  ASSERT_EQ(off.service_served_qps.size(), on.service_served_qps.size());
  for (std::size_t s = 0; s < off.service_served_qps.size(); ++s) {
    for (std::size_t b = 0; b < off.service_served_qps[s].bin_count(); ++b) {
      ASSERT_DOUBLE_EQ(off.service_served_qps[s].mean(b),
                       on.service_served_qps[s].mean(b))
          << "service " << s << " bin " << b;
    }
  }
}

TEST(TelemetryTraceEnv, EngineFlushesTraceToRequestedPath) {
  const std::string path = ::testing::TempDir() + "/engine_trace_test.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("ROOTSTRESS_TRACE", path.c_str(), 1), 0);

  sim::ScenarioConfig config = small_event_scenario();
  config.end = net::SimTime::from_hours(9);  // covers the event-1 onset
  sim::SimulationEngine engine(config);
  (void)engine.run();
  ASSERT_EQ(unsetenv("ROOTSTRESS_TRACE"), 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "engine did not write " << path;
  std::string line;
  bool saw_withdraw = false;
  int lines = 0;
  while (std::getline(in, line)) {
    const auto parsed = obs::json_parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    if (parsed->find("type")->as_string() == "site-withdraw") {
      saw_withdraw = true;
    }
    ++lines;
  }
  EXPECT_GT(lines, 0);
  EXPECT_TRUE(saw_withdraw);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rootstress
