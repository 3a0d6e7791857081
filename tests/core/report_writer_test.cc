#include "core/report_writer.h"

#include <gtest/gtest.h>

#include "sim/scenario_builder.h"

namespace rootstress::core {
namespace {

class ReportWriterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioConfig config =
        sim::ScenarioBuilder::november_2015().vp_count(80).build();
    config.deployment.topology.stub_count = 250;
    config.end = net::SimTime::from_hours(10);
    config.probe_window.end = config.end;
    config.probe_letters = {'B', 'K'};
    report_ = new EvaluationReport(evaluate_scenario(std::move(config)));
  }
  static void TearDownTestSuite() {
    delete report_;
    report_ = nullptr;
  }
  static const EvaluationReport& report() { return *report_; }

 private:
  static EvaluationReport* report_;
};

EvaluationReport* ReportWriterTest::report_ = nullptr;

TEST_F(ReportWriterTest, ContainsAllSections) {
  const std::string md = markdown_report(report());
  EXPECT_NE(md.find("# Root DNS event replay"), std::string::npos);
  EXPECT_NE(md.find("## Highlights"), std::string::npos);
  EXPECT_NE(md.find("## Per-letter damage"), std::string::npos);
  EXPECT_NE(md.find("## DNSMON board"), std::string::npos);
  EXPECT_NE(md.find("## Collateral damage"), std::string::npos);
  EXPECT_NE(md.find("## Letter flips"), std::string::npos);
  // One table row per letter.
  for (char letter = 'A'; letter <= 'M'; ++letter) {
    EXPECT_NE(md.find(std::string("| ") + letter + " |"), std::string::npos)
        << letter;
  }
}

TEST_F(ReportWriterTest, OptionsSetTheTitle) {
  ReportOptions options;
  options.title = "Custom Title";
  const std::string md = markdown_report(report(), options);
  EXPECT_NE(md.find("# Custom Title"), std::string::npos);
  EXPECT_EQ(md.find("# Root DNS event replay"), std::string::npos);
}

TEST_F(ReportWriterTest, HighlightsNameTheWorstLetter) {
  const std::string md = markdown_report(report());
  // B (unicast, attacked) is the worst letter at this scale.
  EXPECT_NE(md.find("Hardest hit: **B-Root**"), std::string::npos) << md;
}

}  // namespace
}  // namespace rootstress::core
