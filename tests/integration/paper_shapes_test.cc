// End-to-end reproduction checks: one 48-hour run of the Nov 30 / Dec 1
// scenario at reduced scale must show the paper's headline observations
// (Table 1). These are shape assertions, not absolute numbers.
#include <gtest/gtest.h>

#include "analysis/collateral.h"
#include "analysis/correlation.h"
#include "analysis/flips.h"
#include "analysis/letter_flips.h"
#include "analysis/reachability.h"
#include "analysis/rtt.h"
#include "analysis/site_stability.h"
#include "attack/events2015.h"
#include "core/evaluation.h"
#include "sim/scenario_builder.h"

namespace rootstress {
namespace {

/// One shared run for all shape checks (expensive to build).
class PaperShapes : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioConfig config =
        sim::ScenarioBuilder::november_2015().vp_count(400).build();
    config.probe_letters = {'B', 'D', 'E', 'J', 'K'};
    report_ = new core::EvaluationReport(core::evaluate_scenario(config));
  }
  static void TearDownTestSuite() {
    delete report_;
    report_ = nullptr;
  }

  static const core::EvaluationReport& report() { return *report_; }
  static const sim::SimulationResult& result() { return report_->result; }

  static core::LetterSummary letter(char c) {
    for (const auto& s : report_->letters) {
      if (s.letter == c) return s;
    }
    return {};
  }

 private:
  static core::EvaluationReport* report_;
};

core::EvaluationReport* PaperShapes::report_ = nullptr;

// §3.2: letters saw minimal to severe loss; B (unicast) suffered most,
// J (98 sites) only a little; D (not attacked) none.
TEST_F(PaperShapes, LossSeverityOrdering) {
  EXPECT_GT(letter('B').worst_loss, 0.6);
  EXPECT_GT(letter('E').worst_loss, 0.4);
  EXPECT_LT(letter('J').worst_loss, 0.45);
  EXPECT_LT(letter('D').worst_loss, 0.25);
  EXPECT_GT(letter('B').worst_loss, letter('J').worst_loss);
  EXPECT_GT(letter('E').worst_loss, letter('D').worst_loss);
}

// §3.3: overall letter loss is not uniform across sites — some K sites
// collapse or surge while others never notice.
TEST_F(PaperShapes, SiteLevelDamageIsUneven) {
  const int k = result().service_index('K');
  const double threshold =
      analysis::stability_threshold(static_cast<int>(result().vps.size()));
  const auto stability = analysis::site_stability(
      report().grids[static_cast<std::size_t>(k)], result(), 'K', threshold);
  int crushed = 0, swollen = 0, steady = 0;
  for (const auto& site : stability) {
    if (site.below_threshold) continue;
    if (site.min_norm < 0.5) ++crushed;
    if (site.max_norm > 1.3) ++swollen;
    if (site.min_norm > 0.7 && site.max_norm < 1.3) ++steady;
  }
  EXPECT_GT(crushed, 0) << "some sites must lose most of their catchment";
  EXPECT_GT(swollen, 0) << "some sites must absorb shifted catchments";
  EXPECT_GT(steady, 0) << "some sites must overlook the attack";
}

// §3.3.2: surviving overloaded sites serve with second-scale RTTs
// (bufferbloat); K-AMS is the canonical example.
TEST_F(PaperShapes, DegradedAbsorberRttInflation) {
  const auto* ams = result().find_site('K', "AMS");
  ASSERT_NE(ams, nullptr);
  analysis::RttFilter filter;
  filter.service_index = result().service_index('K');
  filter.site_id = ams->site_id;
  const double quiet = analysis::median_rtt_in(
      result().records, filter, net::SimTime(0), attack::kEvent1.begin);
  const double stressed = analysis::median_rtt_in(
      result().records, filter, attack::kEvent1.begin, attack::kEvent1.end);
  EXPECT_LT(quiet, 120.0);
  EXPECT_GT(stressed, 400.0);
  EXPECT_GT(stressed, quiet * 5.0);
}

// §3.4.1: site flips burst during the events.
TEST_F(PaperShapes, SiteFlipsBurstDuringEvents) {
  const int k = result().service_index('K');
  const auto flips = analysis::site_flips_per_bin(
      report().grids[static_cast<std::size_t>(k)]);
  std::int64_t event_flips = 0, quiet_flips = 0;
  int event_bins = 0, quiet_bins = 0;
  for (std::size_t b = 0; b < flips.size(); ++b) {
    const net::SimTime t(result().probe_window.begin.ms +
                         static_cast<std::int64_t>(b) * result().bin_width.ms);
    if (attack::kEvent1.contains(t) || attack::kEvent2.contains(t)) {
      event_flips += flips[b];
      ++event_bins;
    } else {
      quiet_flips += flips[b];
      ++quiet_bins;
    }
  }
  ASSERT_GT(event_bins, 0);
  const double event_rate = event_flips / static_cast<double>(event_bins);
  const double quiet_rate = quiet_flips / static_cast<double>(quiet_bins);
  EXPECT_GT(event_rate, 4.0 * std::max(0.25, quiet_rate));
}

// §3.4.2: during the event, displaced K-LHR/K-FRA clients mostly land on
// K-AMS, and some clients are stuck at their overloaded site.
TEST_F(PaperShapes, DisplacedClientsLandOnAms) {
  const int k = result().service_index('K');
  const auto& grid = report().grids[static_cast<std::size_t>(k)];
  const auto* lhr = result().find_site('K', "LHR");
  const auto* ams = result().find_site('K', "AMS");
  ASSERT_TRUE(lhr != nullptr && ams != nullptr);
  const std::size_t before = grid.bin_of(attack::kEvent1.begin) - 1;
  const std::size_t end = grid.bin_of(attack::kEvent1.end - net::SimTime(1));
  const auto dest = analysis::flip_destinations(grid, lhr->site_id, before, end);
  int moved = 0, to_ams = 0;
  for (const auto& [site, n] : dest) {
    if (site >= 0) {
      moved += n;
      if (site == ams->site_id) to_ams += n;
    }
  }
  ASSERT_GT(moved, 0);
  EXPECT_GT(to_ams, moved / 2) << "paper: 70-80% shift to K-AMS";
}

// §3.6: collateral damage — the co-located .nl sites lose their queries
// during the events despite never being attacked.
TEST_F(PaperShapes, NlCollateralDamage) {
  const auto series = analysis::nl_query_rates(result());
  ASSERT_EQ(series.size(), 2u);
  for (const auto& nl : series) {
    double worst = 1e9;
    for (const double v : nl.normalized_qps) worst = std::min(worst, v);
    EXPECT_LT(worst, 0.3) << nl.anonymized_label;
  }
}

// §3.2.2: letter flips — L (not attacked) gains queries during events.
TEST_F(PaperShapes, LetterFlipsRaiseLQueryRate) {
  const auto evidence = analysis::letter_flip_evidence(result(), 'L');
  EXPECT_GT(evidence.event2_ratio, 1.2);
  EXPECT_LT(evidence.event2_ratio, 3.0);
}

// §3.2.1: more sites -> better worst-case reachability (paper R^2=0.87).
TEST_F(PaperShapes, SitesCorrelateWithReachability) {
  const auto letters = anycast::root_letter_table(0);
  std::vector<analysis::LetterPoint> points;
  for (const char c : {'B', 'E', 'J', 'K'}) {
    const int s = result().service_index(c);
    const auto reach = analysis::reachability_series(
        report().grids[static_cast<std::size_t>(s)], c);
    points.push_back(analysis::LetterPoint{
        c, anycast::find_letter(letters, c).reported_sites, reach.min_vps});
  }
  const auto corr = analysis::sites_vs_min_reachability(std::move(points));
  EXPECT_GT(corr.fit.slope, 0.0);
  EXPECT_GT(corr.fit.r_squared, 0.4);
}

// Data cleaning preserved almost all VPs (paper: >9000 of 9363).
TEST_F(PaperShapes, CleaningKeepsMostVps) {
  EXPECT_GT(result().cleaning.kept_vps, 370);
  EXPECT_GT(result().cleaning.dropped_old_firmware, 0);
}

}  // namespace
}  // namespace rootstress
