#include "obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/report_writer.h"
#include "obs/runtime.h"
#include "sweep/summary.h"
#include "util/rng.h"

namespace rootstress::obs {
namespace {

TEST(Json, ScalarDump) {
  EXPECT_EQ(JsonValue().dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(42).dump(), "42");
  EXPECT_EQ(JsonValue(-7).dump(), "-7");
  EXPECT_EQ(JsonValue(1.5).dump(), "1.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(Json, IntegersPrintWithoutFraction) {
  EXPECT_EQ(JsonValue(std::int64_t{1700000000123}).dump(), "1700000000123");
  EXPECT_EQ(JsonValue(std::uint64_t{0}).dump(), "0");
}

TEST(Json, NonFiniteBecomesNull) {
  EXPECT_EQ(JsonValue(std::nan("")).dump(), "null");
  EXPECT_EQ(JsonValue(INFINITY).dump(), "null");
}

TEST(Json, EscapesControlAndQuote) {
  EXPECT_EQ(JsonValue("a\"b\\c\n\t").dump(), "\"a\\\"b\\\\c\\n\\t\"");
  std::string out;
  json_escape(std::string_view("\x01", 1), out);
  EXPECT_EQ(out, "\\u0001");
}

TEST(Json, ObjectKeepsInsertionOrderAndReplacesInPlace) {
  auto obj = JsonValue::object();
  obj.set("b", 1);
  obj.set("a", 2);
  obj.set("b", 3);  // replaced, stays first
  EXPECT_EQ(obj.dump(), "{\"b\":3,\"a\":2}");
  ASSERT_NE(obj.find("a"), nullptr);
  EXPECT_EQ(obj.find("a")->as_number(), 2.0);
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      "{\"name\":\"queue.loss\",\"labels\":{\"letter\":\"K\"},"
      "\"bins\":[1,2,3],\"value\":-0.5,\"flag\":true,\"none\":null}";
  const auto parsed = json_parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), text);
  const JsonValue* bins = parsed->find("bins");
  ASSERT_NE(bins, nullptr);
  ASSERT_EQ(bins->size(), 3u);
  EXPECT_EQ((*bins)[2].as_number(), 3.0);
}

TEST(Json, ParseWhitespaceAndEscapes) {
  const auto parsed = json_parse("  { \"k\" : \"a\\u00e9\\n\" }  ");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->find("k"), nullptr);
  EXPECT_EQ(parsed->find("k")->as_string(), "a\xc3\xa9\n");
}

TEST(Json, SurrogatePairsDecodeToOneCodePoint) {
  // U+1F600 arrives as a UTF-16 pair; pre-fix each half became an
  // invalid 3-byte CESU-8 sequence instead of the 4-byte UTF-8 form.
  const auto parsed = json_parse("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "\xf0\x9f\x98\x80");
  // U+10000, the lowest astral code point.
  const auto boundary = json_parse("\"\\ud800\\udc00\"");
  ASSERT_TRUE(boundary.has_value());
  EXPECT_EQ(boundary->as_string(), "\xf0\x90\x80\x80");
  // U+10FFFF, the highest.
  const auto top = json_parse("\"\\udbff\\udfff\"");
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->as_string(), "\xf4\x8f\xbf\xbf");
}

TEST(Json, LoneSurrogatesBecomeReplacementCharacter) {
  const std::string replacement = "\xef\xbf\xbd";  // U+FFFD
  // High half at end of string.
  auto parsed = json_parse("\"\\ud83dX\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), replacement + "X");
  // Low half with no preceding high half.
  parsed = json_parse("\"\\ude00\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), replacement);
  // High half followed by a non-surrogate escape: the follower must
  // survive as its own character, not be swallowed.
  parsed = json_parse("\"\\ud83d\\u0041\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), replacement + "A");
  // Two high halves in a row: each is lone.
  parsed = json_parse("\"\\ud83d\\ud83d\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), replacement + replacement);
}

TEST(Json, SurrogatePairRoundTripsThroughDump) {
  // Parse -> dump -> parse must be a fixed point: the dumper emits the
  // decoded UTF-8 bytes raw, and the parser accepts them unchanged.
  const auto first = json_parse("{\"emoji\":\"\\ud83d\\ude00\"}");
  ASSERT_TRUE(first.has_value());
  const std::string dumped = first->dump();
  EXPECT_NE(dumped.find("\xf0\x9f\x98\x80"), std::string::npos);
  const auto second = json_parse(dumped);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->dump(), dumped);
  ASSERT_NE(second->find("emoji"), nullptr);
  EXPECT_EQ(second->find("emoji")->as_string(), "\xf0\x9f\x98\x80");
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_FALSE(json_parse("").has_value());
  EXPECT_FALSE(json_parse("{").has_value());
  EXPECT_FALSE(json_parse("[1,]").has_value());
  EXPECT_FALSE(json_parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(json_parse("nul").has_value());
}

TEST(Json, ParseRejectsUnboundedDepth) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(json_parse(deep).has_value());
}

/// A telemetry document with every section the exporter writes: labelled
/// counters, gauges and a histogram, trace events, a profiled phase, and
/// a flight-recorder timeline with a series and a span.
std::string telemetry_document() {
  Runtime runtime(/*trace_capacity=*/8);
  runtime.metrics().counter("sim.steps").add(2880);
  runtime.metrics().gauge("site.load", {{"site", "K-AMS"}}).set(0.875);
  auto& rtt = runtime.metrics().histogram("probe.rtt_ms", {}, 25.0, 8);
  for (const double ms : {12.5, 48.0, 180.25, 1e4}) rtt.observe(ms);
  runtime.event(TraceEventType::kCatchmentFlip, net::SimTime(60000), 'K',
                "K-AMS", "3 ASes changed site \"quoted\"", 3.0);
  { PhaseProfiler::Scope phase(&runtime.profiler(), "fluid-stepping"); }
  Timeline& timeline = runtime.make_timeline(
      net::SimTime(0), net::SimTime::from_hours(1),
      net::SimTime::from_minutes(10));
  const std::size_t served = timeline.add_series("served_fraction", 'K',
                                                 "letter", SeriesAgg::kMean);
  timeline.record(served, net::SimTime::from_minutes(5), 0.5);
  timeline.add_span(TimelineSpan{"attack", "event-1", "K", net::SimTime(0),
                                 net::SimTime::from_minutes(20)});
  return core::telemetry_json(runtime.snapshot(net::SimTime::from_hours(1)));
}

/// A RunSummary document as the sweep cache stores it, with a 64-bit
/// config hash and NaN fields (tagged strings).
std::string summary_document() {
  sweep::RunSummary summary;
  summary.config_hash = 0xfeedfacecafebeefull;
  summary.mean_served_attacked = 1.0 / 3.0;
  summary.record_count = 849576;
  summary.worst_bin_answered = std::nan("");
  sweep::LetterCellSummary k;
  k.letter = 'K';
  k.attacked = true;
  k.baseline_vps = 389;
  k.median_rtt_event_ms = 1e-308;
  summary.letters.push_back(k);
  return sweep::summary_to_json(summary).dump();
}

// Mutated telemetry and summary documents: every mutant is rejected, or
// what it parses to dumps to a text that parse-then-dump reproduces
// exactly. Mutants replace one byte or cut the document short.
TEST(Json, MutatedDocumentsAreRejectedOrReachAFixedPoint) {
  util::Rng rng(2015);
  for (const std::string& text : {telemetry_document(), summary_document()}) {
    ASSERT_TRUE(json_parse(text).has_value()) << text;
    int accepted = 0;
    for (int trial = 0; trial < 2000; ++trial) {
      std::string copy = text;
      if (trial % 4 == 0) {
        copy.resize(rng.below(copy.size()));
      } else {
        copy[rng.below(copy.size())] = static_cast<char>(rng.below(256));
      }
      const auto parsed = json_parse(copy);
      if (!parsed.has_value()) continue;
      ++accepted;
      const std::string dumped = parsed->dump();
      const auto again = json_parse(dumped);
      ASSERT_TRUE(again.has_value()) << copy;
      EXPECT_EQ(again->dump(), dumped) << copy;
    }
    EXPECT_GT(accepted, 0);  // digit-for-digit swaps stay valid
  }
}

}  // namespace
}  // namespace rootstress::obs
