#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "util/logging.h"

namespace rootstress::obs {
namespace {

TraceEvent make_event(TraceEventType type, std::int64_t t_ms,
                      double value = 0.0) {
  TraceEvent e;
  e.type = type;
  e.sim_time = net::SimTime(t_ms);
  e.letter = 'K';
  e.site = "K-AMS";
  e.detail = "test";
  e.value = value;
  return e;
}

TEST(Trace, TypeNamesRoundTrip) {
  // Every type has its own wire name, so a reader of the JSON trace maps
  // each "type" field back to exactly one event type.
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(TraceEventType::kLog); ++i) {
    const std::string name = to_string(static_cast<TraceEventType>(i));
    EXPECT_NE(name, "?") << i;
    EXPECT_TRUE(names.insert(name).second) << name;
  }
  EXPECT_STREQ(to_string(TraceEventType::kSiteWithdraw), "site-withdraw");
  EXPECT_STREQ(to_string(TraceEventType::kBgpSessionFailure),
               "bgp-session-failure");
}

TEST(Trace, RingKeepsNewestAndCountsDrops) {
  TraceSink sink(4);
  for (int i = 0; i < 10; ++i) {
    sink.emit(make_event(TraceEventType::kCatchmentFlip, i * 1000, i));
  }
  const auto stats = sink.stats();
  EXPECT_EQ(stats.emitted, 10u);
  EXPECT_EQ(stats.dropped, 6u);
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_EQ(stats.buffered, 4u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first; the six oldest were evicted.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].value, static_cast<double>(i + 6));
  }
}

TEST(Trace, EventJsonLineParsesBack) {
  const auto line =
      trace_event_json(make_event(TraceEventType::kSiteWithdraw, 24'600'000,
                                  7.0));
  const auto parsed = json_parse(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  ASSERT_NE(parsed->find("type"), nullptr);
  EXPECT_EQ(parsed->find("type")->as_string(), "site-withdraw");
  EXPECT_EQ(parsed->find("t_ms")->as_number(), 24'600'000.0);
  EXPECT_EQ(parsed->find("letter")->as_string(), "K");
  EXPECT_EQ(parsed->find("site")->as_string(), "K-AMS");
  EXPECT_DOUBLE_EQ(parsed->find("value")->as_number(), 7.0);
}

TEST(Trace, WriteJsonlEmitsOneParsableLinePerEvent) {
  TraceSink sink(16);
  sink.emit(make_event(TraceEventType::kSiteWithdraw, 0));
  sink.emit(make_event(TraceEventType::kSiteRestore, 60'000));
  std::ostringstream os;
  sink.write_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    EXPECT_TRUE(json_parse(line).has_value()) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2);
}

TEST(Trace, FlushToFileWritesAllBufferedEvents) {
  const std::string path = ::testing::TempDir() + "/trace_flush_test.jsonl";
  {
    TraceSink sink(16);
    sink.emit(make_event(TraceEventType::kQueueOverloadOnset, 0, 1.4));
    ASSERT_TRUE(sink.flush_to_file(path));
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto parsed = json_parse(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("type")->as_string(), "queue-overload-onset");
  std::remove(path.c_str());
}

TEST(Trace, FlushToUnwritablePathFails) {
  TraceSink sink(4);
  EXPECT_FALSE(sink.flush_to_file("/nonexistent-dir-xyz/trace.jsonl"));
}

TEST(Trace, AttachedLoggerTurnsLinesIntoEvents) {
  util::set_log_level(util::LogLevel::kInfo);
  TraceSink sink(16);
  sink.attach_logger();
  RS_LOG_WARN << "K-AMS went away";
  sink.detach_logger();
  RS_LOG_WARN << "not captured";
  util::set_log_level(util::LogLevel::kOff);

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, TraceEventType::kLog);
  EXPECT_EQ(events[0].detail, "K-AMS went away");
  EXPECT_DOUBLE_EQ(events[0].value,
                   static_cast<double>(util::LogLevel::kWarn));
}

TEST(Trace, DestructionDetachesLogger) {
  util::set_log_level(util::LogLevel::kInfo);
  {
    TraceSink sink(16);
    sink.attach_logger();
  }
  // The sink is gone; logging must not crash (sink detached itself).
  RS_LOG_INFO << "after sink destruction";
  util::set_log_level(util::LogLevel::kOff);
}

}  // namespace
}  // namespace rootstress::obs
