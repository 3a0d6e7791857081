// Fabric wire protocol: every message kind must round-trip encode ->
// parse exactly (including 64-bit keys past 2^53 and NaN summary
// fields), malformed lines must be rejected rather than crash the peer,
// and LineChannel must frame correctly across partial reads and EOF.
#include "sweep/fabric/protocol.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"

namespace rootstress::sweep::fabric {
namespace {

RunSummary sample_summary() {
  RunSummary summary;
  summary.config_hash = 0xfeedfacecafebeefull;  // > 2^53: breaks naive JSON
  summary.mean_served_attacked = 1.0 / 3.0;
  summary.worst_letter_loss = 0.1 + 0.2;
  summary.record_count = 849576;
  summary.route_changes = 123776;
  summary.kept_vps = 389;
  summary.rssac_day0_queries = 1.23456789012345e12;
  LetterCellSummary b;
  b.letter = 'B';
  b.attacked = true;
  b.served_fraction = 0.07000000000000001;
  b.baseline_vps = 389;
  b.min_vps = 12;
  b.worst_loss = 1.0 - 12.0 / 389.0;
  b.median_rtt_quiet_ms = 31.25;
  b.median_rtt_event_ms = 1e-308;
  summary.letters.push_back(b);
  return summary;
}

WireResult sample_result() {
  WireResult result;
  result.index = 11;
  result.key = 0xfeedfacecafebeefull;  // must survive as a u64, not a double
  result.wall_ms = 1912.0625;
  result.cache_hit = true;
  result.timeline_digest = 0x8000000000000001ull;
  result.timeline_series = 42;
  result.timeline_spans = 7;
  result.summary = sample_summary();
  return result;
}

/// Replaces the value of the first `"key":` member in a JSON line, or
/// drops the member when `value` is null.
std::string with_field(std::string text, const std::string& key,
                       const char* value) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = text.find(tag);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no field " << key;
    return text;
  }
  const std::size_t begin = at + tag.size();
  const std::size_t end = text.find_first_of(",}", begin);
  if (value == nullptr) return text.erase(at, end + 1 - at);
  return text.replace(begin, end - begin, value);
}

void expect_same(const WireResult& a, const WireResult& b,
                 const std::string& line) {
  EXPECT_EQ(a.index, b.index) << line;
  EXPECT_EQ(a.key, b.key) << line;
  EXPECT_EQ(a.wall_ms, b.wall_ms) << line;
  EXPECT_EQ(a.cache_hit, b.cache_hit) << line;
  EXPECT_EQ(a.timeline_digest, b.timeline_digest) << line;
  EXPECT_EQ(a.timeline_series, b.timeline_series) << line;
  EXPECT_EQ(a.timeline_spans, b.timeline_spans) << line;
  EXPECT_TRUE(a.summary == b.summary) << line;
}

TEST(FabricProtocol, HelloRoundTrips) {
  const auto msg = parse_message(encode_hello(4242));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, MessageKind::kHello);
  EXPECT_EQ(msg->pid, 4242);
  EXPECT_EQ(msg->version, kProtocolVersion);
}

TEST(FabricProtocol, ControlMessagesRoundTrip) {
  auto lease = parse_message(encode_lease(17));
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->kind, MessageKind::kLease);
  EXPECT_EQ(lease->index, 17u);

  auto ack = parse_message(encode_ack(9));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->kind, MessageKind::kAck);
  EXPECT_EQ(ack->index, 9u);

  auto shutdown = parse_message(encode_shutdown());
  ASSERT_TRUE(shutdown.has_value());
  EXPECT_EQ(shutdown->kind, MessageKind::kShutdown);
}

TEST(FabricProtocol, HeartbeatRoundTrips) {
  const auto msg = parse_message(encode_heartbeat(3, 1234.5));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, MessageKind::kHeartbeat);
  EXPECT_EQ(msg->index, 3u);
  EXPECT_NEAR(msg->elapsed_ms, 1234.5, 1e-3);
}

TEST(FabricProtocol, ErrorFoldsNewlinesIntoOneLine) {
  const std::string line =
      encode_error(5, "engine threw:\nstack line 1\nstack line 2");
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto msg = parse_message(line);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, MessageKind::kError);
  EXPECT_EQ(msg->index, 5u);
  EXPECT_EQ(msg->error, "engine threw: stack line 1 stack line 2");
}

TEST(FabricProtocol, ResultRoundTripsBitExactly) {
  const WireResult original = sample_result();
  const std::string line = encode_result(original);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "framing must be one line";
  const auto msg = parse_message(line);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, MessageKind::kResult);
  EXPECT_EQ(msg->result.index, 11u);
  EXPECT_EQ(msg->result.key, 0xfeedfacecafebeefull);
  EXPECT_EQ(msg->result.wall_ms, 1912.0625);
  EXPECT_TRUE(msg->result.cache_hit);
  EXPECT_EQ(msg->result.timeline_digest, 0x8000000000000001ull);
  EXPECT_EQ(msg->result.timeline_series, 42u);
  EXPECT_EQ(msg->result.timeline_spans, 7u);
  // Bit-exact: defaulted operator==, doubles included.
  EXPECT_TRUE(msg->result.summary == original.summary);
}

TEST(FabricProtocol, ResultCarriesNanSummaryFields) {
  WireResult original;
  original.index = 0;
  original.key = 1;
  original.summary = sample_summary();
  original.summary.worst_bin_answered =
      std::numeric_limits<double>::quiet_NaN();
  original.summary.letters[0].median_rtt_event_ms =
      std::numeric_limits<double>::quiet_NaN();

  const auto msg = parse_message(encode_result(original));
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(std::isnan(msg->result.summary.worst_bin_answered));
  EXPECT_TRUE(
      std::isnan(msg->result.summary.letters[0].median_rtt_event_ms));
  EXPECT_TRUE(msg->result.summary == original.summary);  // NaN-aware
}

TEST(FabricProtocol, MalformedLinesAreRejectedNotFatal) {
  EXPECT_FALSE(parse_message("").has_value());
  EXPECT_FALSE(parse_message("BOGUS 1 2 3").has_value());
  EXPECT_FALSE(parse_message("LEASE").has_value());
  EXPECT_FALSE(parse_message("LEASE notanumber").has_value());
  EXPECT_FALSE(parse_message("HELLO 12").has_value());
  EXPECT_FALSE(parse_message("HEARTBEAT 1").has_value());
  EXPECT_FALSE(parse_message("RESULT {not json").has_value());
  EXPECT_FALSE(parse_message("RESULT {\"index\": 1}").has_value());
  // A RESULT whose key is a raw number (would have been rounded) is
  // rejected: the grammar demands the decimal-string convention.
  EXPECT_FALSE(
      parse_message("RESULT {\"index\": 1, \"key\": 123, \"wall_ms\": 1.0}")
          .has_value());
}

// The integer fields of a RESULT were cast from double unchecked: -1 or
// 1e300 was undefined behaviour, 1.5 silently named cell 1, and a string
// where a count belongs read as 0.
TEST(FabricProtocol, RejectsOutOfRangeResultFields) {
  const std::string valid = encode_result(sample_result());
  ASSERT_TRUE(parse_message(valid).has_value());
  // The edit itself is sound: an in-range replacement still parses.
  const auto edited = parse_message(with_field(valid, "index", "3"));
  ASSERT_TRUE(edited.has_value());
  EXPECT_EQ(edited->result.index, 3u);

  for (const char* key : {"index", "timeline_series", "timeline_spans"}) {
    for (const char* value : {"-1", "1.5", "1e300", "\"7\"", "null"}) {
      EXPECT_FALSE(parse_message(with_field(valid, key, value)).has_value())
          << key << "=" << value;
    }
    EXPECT_FALSE(parse_message(with_field(valid, key, nullptr)).has_value())
        << key << " missing";
  }
}

TEST(FabricProtocol, MutatedResultLinesAreRejectedOrRoundTrip) {
  const std::string line = encode_result(sample_result());
  util::Rng rng(23);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string copy = line;
    copy[rng.below(copy.size())] = static_cast<char>(rng.below(256));
    const auto parsed = parse_message(copy);
    if (!parsed.has_value()) continue;
    ++accepted;
    ASSERT_EQ(parsed->kind, MessageKind::kResult) << copy;
    const auto again = parse_message(encode_result(parsed->result));
    ASSERT_TRUE(again.has_value()) << copy;
    expect_same(again->result, parsed->result, copy);
  }
  EXPECT_GT(accepted, 0);  // digit-for-digit swaps stay valid
}

/// The line that encodes `msg`, for every kind but RESULT.
std::string encode_control(const Message& msg) {
  switch (msg.kind) {
    case MessageKind::kHello: return encode_hello(msg.pid, msg.version);
    case MessageKind::kLease: return encode_lease(msg.index);
    case MessageKind::kAck: return encode_ack(msg.index);
    case MessageKind::kShutdown: return encode_shutdown();
    case MessageKind::kHeartbeat:
      return encode_heartbeat(msg.index, msg.elapsed_ms);
    case MessageKind::kError: return encode_error(msg.index, msg.error);
    case MessageKind::kResult: break;
  }
  ADD_FAILURE() << "no control encoding for " << to_string(msg.kind);
  return {};
}

// Mutated control lines (one byte replaced, or the line cut short): each
// is rejected, or its message re-encodes to a line that parses back to
// the same message. The seeds sit at the field limits: the largest pid,
// a 64-bit index, the current protocol version.
TEST(FabricProtocol, MutatedControlLinesAreRejectedOrRoundTrip) {
  const std::vector<std::string> seeds = {
      encode_hello(4242),
      encode_hello(std::numeric_limits<int>::max()),
      encode_lease(17),
      encode_lease(std::numeric_limits<std::size_t>::max()),
      encode_ack(9),
      encode_heartbeat(3, 1234.5),
      encode_heartbeat(12, 0.125),
      encode_error(5, "engine threw: bad_alloc at cell 5"),
      encode_shutdown(),
  };
  util::Rng rng(31);
  int accepted = 0;
  for (const std::string& seed : seeds) {
    for (int trial = 0; trial < 500; ++trial) {
      std::string copy = seed;
      if (trial % 4 == 0) {
        copy.resize(rng.below(copy.size()));
      } else {
        copy[rng.below(copy.size())] = static_cast<char>(rng.below(256));
      }
      const auto parsed = parse_message(copy);
      if (!parsed.has_value()) continue;
      ++accepted;
      ASSERT_NE(parsed->kind, MessageKind::kResult) << copy;
      const std::string line = encode_control(*parsed);
      const auto again = parse_message(line);
      ASSERT_TRUE(again.has_value()) << copy << " -> " << line;
      EXPECT_EQ(again->kind, parsed->kind) << copy;
      EXPECT_EQ(again->pid, parsed->pid) << copy;
      EXPECT_EQ(again->version, parsed->version) << copy;
      EXPECT_EQ(again->index, parsed->index) << copy;
      EXPECT_EQ(again->elapsed_ms, parsed->elapsed_ms) << copy;
      EXPECT_EQ(again->error, parsed->error) << copy;
    }
  }
  EXPECT_GT(accepted, 0);
}

TEST(FabricLineChannel, FramesLinesAcrossPartialWrites) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  LineChannel writer(sv[0]);
  LineChannel reader(sv[1]);

  ASSERT_TRUE(writer.send_line("LEASE 1"));
  ASSERT_TRUE(writer.send_line("LEASE 2"));
  // A partial line (no newline yet) must stay buffered...
  const char partial[] = "LEA";
  ASSERT_EQ(::send(sv[0], partial, 3, 0), 3);

  std::vector<std::string> lines;
  ASSERT_TRUE(reader.read_lines(lines));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "LEASE 1");
  EXPECT_EQ(lines[1], "LEASE 2");

  // ...and complete once the rest arrives.
  const char tail[] = "SE 3\n";
  ASSERT_EQ(::send(sv[0], tail, 5, 0), 5);
  lines.clear();
  ASSERT_TRUE(reader.read_lines(lines));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "LEASE 3");

  writer.close_fd();
  reader.close_fd();
}

TEST(FabricLineChannel, EofFlushesBufferedLinesThenReportsDead) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  LineChannel writer(sv[0]);
  LineChannel reader(sv[1]);

  ASSERT_TRUE(writer.send_line("HELLO 1 1"));
  writer.close_fd();

  std::vector<std::string> lines;
  // The buffered line is surfaced first (a blocking fd returns as soon
  // as it has bytes)...
  EXPECT_TRUE(reader.read_lines(lines));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "HELLO 1 1");
  // ...and the next read observes EOF and reports the peer dead.
  lines.clear();
  EXPECT_FALSE(reader.read_lines(lines));
  EXPECT_TRUE(lines.empty());
  EXPECT_FALSE(reader.alive());
  // Sends to a dead channel fail without raising SIGPIPE.
  EXPECT_FALSE(reader.send_line("LEASE 1"));
  reader.close_fd();
}

}  // namespace
}  // namespace rootstress::sweep::fabric
