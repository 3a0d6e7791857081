// Labeled-dataset exporter: ground-truth labels from the schedules, and
// JSON-lines output that parses record by record.
#include "resolver/dataset.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "sim/scenario_builder.h"

namespace rootstress::resolver {
namespace {

sim::ScenarioConfig label_config() {
  sim::ScenarioConfig config;
  // One attack event 10-20 min, one flash crowd 30-40 min, quiet rest.
  attack::AttackEvent event;
  event.when = net::SimInterval{net::SimTime::from_minutes(10),
                                net::SimTime::from_minutes(20)};
  event.per_letter_qps = 1e6;
  config.schedule = attack::AttackSchedule({event});
  fault::LegitSurge surge;
  surge.window = net::SimInterval{net::SimTime::from_minutes(30),
                                  net::SimTime::from_minutes(40)};
  surge.scale = 3.0;
  config.fault_schedule.legit_surges.push_back(surge);
  return config;
}

TEST(Dataset, LabelPriorityIsAttackThenFlashCrowdThenLegit) {
  const sim::ScenarioConfig config = label_config();
  const auto min = [](double m) { return net::SimTime::from_minutes(m); };
  EXPECT_EQ(dataset_label(config, min(0), min(10)), "legit");
  EXPECT_EQ(dataset_label(config, min(10), min(20)), "attack");
  // A bin only partially covered by the event is still an attack bin.
  EXPECT_EQ(dataset_label(config, min(15), min(25)), "attack");
  EXPECT_EQ(dataset_label(config, min(30), min(40)), "flash_crowd");
  EXPECT_EQ(dataset_label(config, min(35), min(45)), "flash_crowd");
  EXPECT_EQ(dataset_label(config, min(45), min(55)), "legit");
  // Attack wins over a colliding surge.
  sim::ScenarioConfig overlap = label_config();
  overlap.fault_schedule.legit_surges[0].window =
      net::SimInterval{min(10), min(20)};
  EXPECT_EQ(dataset_label(overlap, min(10), min(20)), "attack");
}

sim::ScenarioConfig tiny_run_config() {
  sim::ScenarioConfig config = sim::ScenarioBuilder::november_2015()
                                   .fluid_only()
                                   .topology_stubs(120)
                                   .duration(net::SimTime::from_hours(2))
                                   .threads(1)
                                   .build();
  attack::AttackEvent event;
  event.when = net::SimInterval{net::SimTime::from_minutes(30),
                                net::SimTime::from_minutes(60)};
  event.per_letter_qps = 5e6;
  config.schedule = attack::AttackSchedule({event});
  resolver::PopulationConfig profile;
  profile.resolvers = 64;
  profile.root_lookups_per_hour = 600.0;
  config.resolver_profile = profile;
  return config;
}

TEST(Dataset, LinesAreValidJsonWithLabelsAndEnduserRecords) {
  const sim::ScenarioConfig config = tiny_run_config();
  sim::SimulationEngine engine(config);
  const sim::SimulationResult result = engine.run();

  const std::string text = labeled_dataset_lines(config, result);
  ASSERT_FALSE(text.empty());

  std::istringstream lines(text);
  std::string line;
  std::size_t letter_records = 0;
  std::size_t enduser_records = 0;
  std::set<std::string> labels;
  while (std::getline(lines, line)) {
    const auto doc = obs::json_parse(line);
    ASSERT_TRUE(doc.has_value()) << "unparseable line: " << line;
    const obs::JsonValue* type = doc->find("type");
    ASSERT_NE(type, nullptr);
    const obs::JsonValue* label = doc->find("label");
    ASSERT_NE(label, nullptr);
    labels.insert(label->as_string());
    if (type->as_string() == "letter_bin") {
      ++letter_records;
      ASSERT_NE(doc->find("letter"), nullptr);
      ASSERT_NE(doc->find("offered_qps"), nullptr);
      ASSERT_NE(doc->find("answered_fraction"), nullptr);
    } else {
      ASSERT_EQ(type->as_string(), "enduser_bin");
      ++enduser_records;
      ASSERT_NE(doc->find("client_queries"), nullptr);
      ASSERT_NE(doc->find("success_rate"), nullptr);
    }
  }
  const std::size_t bins = result.service_offered_qps.front().bin_count();
  EXPECT_EQ(letter_records, bins * result.letter_chars.size());
  EXPECT_EQ(enduser_records, bins);
  EXPECT_TRUE(labels.count("attack")) << "no bin labeled attack";
  EXPECT_TRUE(labels.count("legit")) << "no bin labeled legit";
}

TEST(Dataset, WriteIsAtomicAndReadable) {
  const sim::ScenarioConfig config = tiny_run_config();
  sim::SimulationEngine engine(config);
  const sim::SimulationResult result = engine.run();

  const std::string path = ::testing::TempDir() + "/dataset_test.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(write_labeled_dataset(path, config, result));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), labeled_dataset_lines(config, result));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rootstress::resolver
