#include "util/logging.h"

#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <utility>
#include <vector>

namespace rootstress::util {
namespace {

/// Captures std::cerr for the duration of a test scope.
class CerrCapture {
 public:
  CerrCapture() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
  ~CerrCapture() { std::cerr.rdbuf(old_); }
  std::string text() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
  std::streambuf* old_;
};

class LoggingTest : public ::testing::Test {
 protected:
  void TearDown() override {
    set_log_level(LogLevel::kOff);
    set_log_sink(nullptr);
  }
};

TEST_F(LoggingTest, ThresholdFilters) {
  set_log_level(LogLevel::kWarn);
  CerrCapture capture;
  log_line(LogLevel::kDebug, "quiet");
  log_line(LogLevel::kInfo, "quiet too");
  log_line(LogLevel::kWarn, "loud");
  EXPECT_EQ(capture.text(), "[WARN] loud\n");
}

TEST_F(LoggingTest, OffSilencesEverything) {
  set_log_level(LogLevel::kOff);
  CerrCapture capture;
  log_line(LogLevel::kWarn, "nope");
  EXPECT_TRUE(capture.text().empty());
}

TEST_F(LoggingTest, StreamMacroFormats) {
  set_log_level(LogLevel::kDebug);
  CerrCapture capture;
  RS_LOG_INFO << "value=" << 42 << " site=" << "K-AMS";
  EXPECT_EQ(capture.text(), "[INFO] value=42 site=K-AMS\n");
}

TEST_F(LoggingTest, LevelRoundTrip) {
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
}

TEST_F(LoggingTest, ErrorLevelPassesWarnThresholdFilter) {
  set_log_level(LogLevel::kError);
  CerrCapture capture;
  RS_LOG_WARN << "below threshold";
  RS_LOG_ERROR << "broken";
  EXPECT_EQ(capture.text(), "[ERROR] broken\n");
}

TEST_F(LoggingTest, SinkReceivesEmittedLines) {
  set_log_level(LogLevel::kInfo);
  std::vector<std::pair<LogLevel, std::string>> seen;
  set_log_sink([&seen](LogLevel level, const std::string& message) {
    seen.emplace_back(level, message);
  });
  CerrCapture capture;
  RS_LOG_DEBUG << "filtered";  // below threshold: neither stderr nor sink
  RS_LOG_WARN << "to both";
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, LogLevel::kWarn);
  EXPECT_EQ(seen[0].second, "to both");
  EXPECT_EQ(capture.text(), "[WARN] to both\n");
}

TEST_F(LoggingTest, DetachedSinkStopsReceiving) {
  set_log_level(LogLevel::kInfo);
  int calls = 0;
  set_log_sink([&calls](LogLevel, const std::string&) { ++calls; });
  CerrCapture capture;
  RS_LOG_INFO << "one";
  set_log_sink(nullptr);
  RS_LOG_INFO << "two";
  EXPECT_EQ(calls, 1);
}

/// Streams as "counted" and counts how often it was formatted.
struct Counted {
  int* formatted;
};
std::ostream& operator<<(std::ostream& os, const Counted& c) {
  ++*c.formatted;
  return os << "counted";
}

TEST_F(LoggingTest, LinesBelowTheLevelFormatNothing) {
  int formatted = 0;
  std::vector<std::string> sunk;
  set_log_sink(
      [&sunk](LogLevel, const std::string& line) { sunk.push_back(line); });
  CerrCapture capture;
  set_log_level(LogLevel::kOff);
  RS_LOG_WARN << Counted{&formatted};
  RS_LOG_ERROR << Counted{&formatted};
  EXPECT_EQ(formatted, 0);
  set_log_level(LogLevel::kWarn);
  RS_LOG_INFO << Counted{&formatted};
  EXPECT_EQ(formatted, 0);
  RS_LOG_WARN << "x=" << Counted{&formatted};
  EXPECT_EQ(formatted, 1);
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_EQ(sunk[0], "x=counted");
  EXPECT_EQ(capture.text(), "[WARN] x=counted\n");
}

TEST_F(LoggingTest, TrailingElseBindsToTheCallersIf) {
  CerrCapture capture;
  for (const LogLevel level : {LogLevel::kOff, LogLevel::kDebug}) {
    set_log_level(level);
    for (const bool condition : {false, true}) {
      bool else_ran = false;
      if (condition)
        RS_LOG_WARN << "taken";
      else
        else_ran = true;
      EXPECT_EQ(else_ran, !condition);
    }
  }
  EXPECT_EQ(capture.text(), "[WARN] taken\n");
}

}  // namespace
}  // namespace rootstress::util
