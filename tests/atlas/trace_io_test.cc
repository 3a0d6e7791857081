#include "atlas/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/rng.h"

namespace rootstress::atlas {
namespace {

RecordSet sample_records() {
  RecordSet records;
  ProbeRecord a;
  a.vp = 3;
  a.t_s = 12345;
  a.letter_index = 10;
  a.outcome = ProbeOutcome::kSite;
  a.site_id = 42;
  a.server = 2;
  a.rtt_ms = 1337;
  a.rcode = 0;
  records.push_back(a);
  ProbeRecord b;
  b.vp = 9;
  b.t_s = 99;
  b.letter_index = 1;
  b.outcome = ProbeOutcome::kTimeout;
  b.site_id = -1;
  records.push_back(b);
  ProbeRecord c;
  c.vp = 0;
  c.outcome = ProbeOutcome::kError;
  c.rtt_ms = 3;
  c.site_id = -1;
  records.push_back(c);
  return records;
}

TEST(TraceIo, RecordsRoundTrip) {
  const auto records = sample_records();
  std::stringstream buffer;
  write_records_csv(records, buffer);
  const auto parsed = read_records_csv(buffer);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*parsed)[i].vp, records[i].vp);
    EXPECT_EQ((*parsed)[i].t_s, records[i].t_s);
    EXPECT_EQ((*parsed)[i].letter_index, records[i].letter_index);
    EXPECT_EQ((*parsed)[i].outcome, records[i].outcome);
    EXPECT_EQ((*parsed)[i].site_id, records[i].site_id);
    EXPECT_EQ((*parsed)[i].server, records[i].server);
    EXPECT_EQ((*parsed)[i].rtt_ms, records[i].rtt_ms);
  }
}

TEST(TraceIo, RejectsMalformedRecords) {
  auto check_bad = [](const std::string& text, std::size_t expect_row) {
    std::istringstream is(text);
    std::size_t bad_row = 9999;
    EXPECT_FALSE(read_records_csv(is, &bad_row).has_value()) << text;
    EXPECT_EQ(bad_row, expect_row);
  };
  check_bad("not,a,header\n", 0);
  check_bad("vp,t_s,letter,outcome,site,server,rtt_ms,rcode\n1,2,3\n", 1);
  check_bad(
      "vp,t_s,letter,outcome,site,server,rtt_ms,rcode\n"
      "1,2,3,banana,5,6,7,8\n",
      1);
  check_bad(
      "vp,t_s,letter,outcome,site,server,rtt_ms,rcode\n"
      "1,2,3,site,5,6,7,8\n"
      "x,2,3,site,5,6,7,8\n",
      2);
  // Numbers outside a field's type are rejected, not narrowed (this row
  // once read as letter 44, site -25536, server 4, rcode 255), one field
  // at a time too.
  for (const char* row :
       {"1,2,300,site,40000,260,5,511", "1,2,256,site,5,6,7,8",
        "1,2,-1,site,5,6,7,8", "1,2,3,site,32768,6,7,8",
        "1,2,3,site,5,256,7,8", "1,2,3,site,5,6,65536,8",
        "1,2,3,site,5,6,7,256", "1,4294967296,3,site,5,6,7,8"}) {
    check_bad(std::string("vp,t_s,letter,outcome,site,server,rtt_ms,rcode\n") +
                  row + "\n",
              1);
  }
}

TEST(TraceIo, EmptyRecordSet) {
  std::stringstream buffer;
  write_records_csv({}, buffer);
  const auto parsed = read_records_csv(buffer);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
}

TEST(TraceIo, VpsRoundTrip) {
  std::vector<VantagePoint> vps(2);
  vps[0].id = 0;
  vps[0].as_index = 17;
  vps[0].address = net::Ipv4Addr(10, 0, 0, 1);
  vps[0].location = {52.370216, 4.895168};  // more digits than %g keeps
  vps[0].region = "EU";
  vps[0].firmware = 4700;
  vps[0].hijacked = false;
  vps[0].phase_ms = 1234;
  vps[1].id = 1;
  vps[1].as_index = 99;
  vps[1].address = net::Ipv4Addr(10, 0, 0, 2);
  vps[1].location = {-33.9, 151.2};
  vps[1].region = "OC";
  vps[1].firmware = 4500;
  vps[1].hijacked = true;
  vps[1].phase_ms = 0;

  std::stringstream buffer;
  write_vps_csv(vps, buffer);
  const auto parsed = read_vps_csv(buffer);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].as_index, 17);
  EXPECT_EQ((*parsed)[0].address, net::Ipv4Addr(10, 0, 0, 1));
  for (std::size_t i = 0; i < vps.size(); ++i) {
    EXPECT_EQ((*parsed)[i].location.lat, vps[i].location.lat);
    EXPECT_EQ((*parsed)[i].location.lon, vps[i].location.lon);
  }
  EXPECT_EQ((*parsed)[1].region, "OC");
  EXPECT_TRUE((*parsed)[1].hijacked);
  EXPECT_FALSE((*parsed)[0].hijacked);
}

/// Replaces one random byte of a valid file per trial. Every mutant must
/// either be rejected or parse to values that write and read back
/// identically (`same` compares two parses); none may crash.
template <typename T, typename Read, typename Write, typename Same>
void check_mutants(const T& valid, Read read, Write write, Same same) {
  std::ostringstream os;
  write(valid, os);
  const std::string text = os.str();
  util::Rng rng(13);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string copy = text;
    copy[rng.below(copy.size())] = static_cast<char>(rng.below(256));
    std::istringstream is(copy);
    const auto parsed = read(is);
    if (!parsed.has_value()) continue;
    ++accepted;
    std::stringstream again;
    write(*parsed, again);
    const auto reread = read(again);
    ASSERT_TRUE(reread.has_value()) << copy;
    ASSERT_EQ(reread->size(), parsed->size()) << copy;
    for (std::size_t i = 0; i < parsed->size(); ++i) {
      EXPECT_TRUE(same((*parsed)[i], (*reread)[i])) << copy;
    }
  }
  EXPECT_GT(accepted, 0);  // digit-for-digit swaps stay valid
}

TEST(TraceIo, MutatedRecordsAreRejectedOrRoundTrip) {
  check_mutants(
      sample_records(),
      [](std::istream& is) { return read_records_csv(is); },
      [](const RecordSet& records, std::ostream& os) {
        write_records_csv(records, os);
      },
      [](const ProbeRecord& a, const ProbeRecord& b) {
        return a.vp == b.vp && a.t_s == b.t_s && a.site_id == b.site_id &&
               a.rtt_ms == b.rtt_ms && a.letter_index == b.letter_index &&
               a.outcome == b.outcome && a.server == b.server &&
               a.rcode == b.rcode;
      });
}

TEST(TraceIo, MutatedVpsAreRejectedOrRoundTrip) {
  // Full-precision coordinates, as a generated population carries them.
  util::Rng rng(5);
  std::vector<VantagePoint> vps(3);
  for (std::size_t i = 0; i < vps.size(); ++i) {
    vps[i].id = static_cast<int>(i);
    vps[i].as_index = 100 + static_cast<int>(i);
    vps[i].address = net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(i));
    vps[i].location = {rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)};
    vps[i].region = "EU";
    vps[i].hijacked = i == 1;
    vps[i].phase_ms = static_cast<std::int64_t>(rng.below(240000));
  }
  check_mutants(
      vps, [](std::istream& is) { return read_vps_csv(is); },
      [](const std::vector<VantagePoint>& v, std::ostream& os) {
        write_vps_csv(v, os);
      },
      [](const VantagePoint& a, const VantagePoint& b) {
        return a.id == b.id && a.as_index == b.as_index &&
               a.address == b.address && a.location.lat == b.location.lat &&
               a.location.lon == b.location.lon && a.region == b.region &&
               a.firmware == b.firmware && a.hijacked == b.hijacked &&
               a.phase_ms == b.phase_ms;
      });
}

TEST(TraceIo, RejectsMalformedVps) {
  std::istringstream is(
      "id,as_index,address,lat,lon,region,firmware,hijacked,phase_ms\n"
      "0,17,999.999.1.1,52.3,4.7,EU,4700,0,10\n");
  std::size_t bad_row = 0;
  EXPECT_FALSE(read_vps_csv(is, &bad_row).has_value());
  EXPECT_EQ(bad_row, 1u);

  for (const char* row : {"0,17,10.0.0.1,nan,4.7,EU,4700,0,10",
                          "0,17,10.0.0.1,52.3,1e999,EU,4700,0,10",
                          "0,17,10.0.0.1,52.3,4.7,EU,4700,2,10"}) {
    std::istringstream bad(
        std::string("id,as_index,address,lat,lon,region,firmware,hijacked,"
                    "phase_ms\n") +
        row + "\n");
    EXPECT_FALSE(read_vps_csv(bad).has_value()) << row;
  }
}

}  // namespace
}  // namespace rootstress::atlas
