#include "analysis/servers.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rootstress::analysis {
namespace {

sim::SimulationResult result_with_site() {
  sim::SimulationResult result;
  sim::SiteMeta meta;
  meta.site_id = 0;
  meta.letter = 'K';
  meta.code = "FRA";
  meta.label = "K-FRA";
  meta.servers = 3;
  result.sites.push_back(meta);
  result.letter_chars = {'K'};  // K is service 0, as the records say
  return result;
}

atlas::ProbeRecord rec(std::uint32_t t_s, int server, double rtt,
                       int site = 0) {
  atlas::ProbeRecord r;
  r.vp = 0;
  r.letter_index = 0;
  r.t_s = t_s;
  r.outcome = atlas::ProbeOutcome::kSite;
  r.site_id = static_cast<std::int16_t>(site);
  r.server = static_cast<std::uint8_t>(server);
  r.rtt_ms = static_cast<std::uint16_t>(rtt);
  return r;
}

TEST(Servers, SplitsRepliesAndRtt) {
  const auto result = result_with_site();
  atlas::RecordSet records;
  records.push_back(rec(10, 1, 20));
  records.push_back(rec(20, 1, 40));
  records.push_back(rec(30, 2, 100));
  records.push_back(rec(700, 3, 500));
  const auto servers = server_breakdown(records, result, 0, net::SimTime(0),
                                        net::SimTime::from_minutes(10), 2);
  ASSERT_EQ(servers.size(), 3u);
  EXPECT_EQ(servers[0].replies_per_bin, (std::vector<int>{2, 0}));
  EXPECT_DOUBLE_EQ(servers[0].median_rtt_per_bin[0], 30.0);
  EXPECT_EQ(servers[1].replies_per_bin, (std::vector<int>{1, 0}));
  EXPECT_EQ(servers[2].replies_per_bin, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(servers[2].median_rtt_per_bin[1], 500.0);
}

TEST(Servers, IgnoresOtherSitesAndBadServerIds) {
  const auto result = result_with_site();
  atlas::RecordSet records;
  records.push_back(rec(10, 1, 20, /*site=*/5));  // other site
  records.push_back(rec(10, 0, 20));              // server id 0 invalid
  records.push_back(rec(10, 9, 20));              // beyond server count
  const auto servers = server_breakdown(records, result, 0, net::SimTime(0),
                                        net::SimTime::from_minutes(10), 1);
  for (const auto& s : servers) {
    EXPECT_EQ(s.replies_per_bin[0], 0);
  }
}

// The site id indexes result.sites: one outside it is rejected, not read.
TEST(Servers, RejectsSiteIdsOutsideTheResult) {
  const auto result = result_with_site();
  atlas::RecordSet records;
  records.push_back(rec(10, 1, 20));
  for (const int site : {-1, 1, 1000}) {
    EXPECT_THROW(server_breakdown(records, result, site, net::SimTime(0),
                                  net::SimTime::from_minutes(10), 1),
                 std::out_of_range)
        << "site " << site;
  }
}

// Records of another letter carrying the site's id are not the site's:
// the breakdown reads only the records of the site's letter.
TEST(Servers, ReadsOnlyTheSitesLetter) {
  auto result = result_with_site();
  result.letter_chars = {'J', 'K'};  // K is service 1 now
  atlas::RecordSet records;
  records.push_back(rec(10, 1, 20));  // letter 0 = J
  auto own = rec(20, 1, 60);
  own.letter_index = 1;
  records.push_back(own);
  const auto servers = server_breakdown(records, result, 0, net::SimTime(0),
                                        net::SimTime::from_minutes(10), 1);
  ASSERT_EQ(servers.size(), 3u);
  EXPECT_EQ(servers[0].replies_per_bin[0], 1);
  EXPECT_DOUBLE_EQ(servers[0].median_rtt_per_bin[0], 60.0);
}

}  // namespace
}  // namespace rootstress::analysis
