// ResolverPopulation unit contract: validation, cache-key fingerprint
// conventions, behavioural sanity of the cache/retry model, and the
// bit-identical-at-any-thread-count determinism promise.
#include "resolver/population.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "obs/profiler.h"

namespace rootstress::resolver {
namespace {

PopulationConfig small_config() {
  PopulationConfig config;
  config.resolvers = 120;
  config.root_lookups_per_hour = 3600.0;  // one per second: plenty of draws
  config.name_space = 50;
  return config;
}

std::array<double, kLetterCount> all(double value) {
  std::array<double, kLetterCount> a{};
  a.fill(value);
  return a;
}

TEST(Population, ValidateAcceptsTheDefault) {
  EXPECT_EQ(validate_population(PopulationConfig{}), "");
}

TEST(Population, ValidateRejectsBrokenConfigs) {
  PopulationConfig config;
  config.resolvers = 0;
  EXPECT_NE(validate_population(config), "");
  config = PopulationConfig{};
  config.referral_ttl = net::SimTime(0);
  EXPECT_NE(validate_population(config), "");
  config = PopulationConfig{};
  config.name_space = 0;
  EXPECT_NE(validate_population(config), "");
  config = PopulationConfig{};
  config.max_attempts = 0;
  EXPECT_NE(validate_population(config), "");
  config = PopulationConfig{};
  config.per_try_timeout_ms = 0.0;
  EXPECT_NE(validate_population(config), "");
  config = PopulationConfig{};
  config.demand_skew = -0.5;
  EXPECT_NE(validate_population(config), "");
  // The cache's table costs 8 B per name per resolver: 512 KB at the
  // bound, no further.
  config = PopulationConfig{};
  config.name_space = 65536;
  EXPECT_EQ(validate_population(config), "");
  config.name_space = 65537;
  EXPECT_NE(validate_population(config).find("name space"),
            std::string::npos);
}

TEST(Population, FingerprintExcludesTheDisplayName) {
  PopulationConfig a = small_config();
  a.name = "alpha";
  PopulationConfig b = small_config();
  b.name = "beta";
  EXPECT_EQ(population_fingerprint(a).dump(), population_fingerprint(b).dump());

  PopulationConfig c = small_config();
  c.cache_capacity = a.cache_capacity + 1;
  EXPECT_NE(population_fingerprint(a).dump(), population_fingerprint(c).dump());
}

// Only a cache that can evict depends on the eviction rule, so only such
// profiles carry it in their cache key; every other profile keeps the
// key it had before the rule was written down.
TEST(Population, FingerprintNamesTheEvictionRuleOnlyWhenTheCacheCanEvict) {
  const PopulationConfig fits;  // 500 names, capacity 1000
  EXPECT_EQ(population_fingerprint(fits).dump(),
            R"({"strategy":"srtt","resolvers":256,"root_lookups_per_hour":60,)"
            R"("referral_ttl_ms":86400000,"name_space":500,"demand_skew":1,)"
            R"("max_attempts":3,"per_try_timeout_ms":1500,"enable_cache":true,)"
            R"("cache_capacity":1000})");

  PopulationConfig evicting = fits;
  evicting.name_space = 1001;
  const obs::JsonValue doc = population_fingerprint(evicting);
  const obs::JsonValue* rule = doc.find("eviction");
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->as_string(), "expiry-then-key");
  PopulationConfig no_rule = evicting;
  no_rule.name_space = 1000;  // fills exactly, never evicts
  EXPECT_EQ(population_fingerprint(no_rule).find("eviction"), nullptr);
}

TEST(Population, StepAllocatesNothingAfterWarmup) {
#ifdef ROOTSTRESS_NO_ALLOC_HOOK
  GTEST_SKIP() << "allocation hook disabled at compile time";
#else
  if (obs::allocation_count() == 0) {
    GTEST_SKIP() << "allocation hook not active in this binary";
  }
  ResolverPopulation pop(PopulationConfig{}, /*seed=*/5, net::SimTime(0),
                         net::SimTime::from_hours(4),
                         net::SimTime::from_seconds(60),
                         net::SimTime::from_minutes(10));
  util::ThreadPool pool(1);
  // Half the letters fail: retries, failovers and failures all run.
  std::array<double, kLetterCount> success = all(1.0);
  for (std::size_t i = 0; i < success.size(); i += 2) success[i] = 0.0;
  const auto step = [&](std::int64_t m) {
    pop.step(net::SimTime::from_minutes(static_cast<double>(m)), success,
             all(80.0), 1.0, pool);
  };
  for (std::int64_t m = 0; m < 60; ++m) step(m);  // warm-up
  const std::uint64_t before = obs::allocation_count();
  for (std::int64_t m = 60; m < 240; ++m) step(m);
  EXPECT_EQ(obs::allocation_count() - before, 0u);
  EXPECT_GT(pop.report().cache_hit_rate(), 0.0);
  EXPECT_GT(pop.report().retries_per_query(), 0.0);
#endif
}

TEST(Population, HealthyLettersMeanNearPerfectSuccess) {
  ResolverPopulation pop(small_config(), /*seed=*/1, net::SimTime(0),
                         net::SimTime::from_minutes(30),
                         net::SimTime::from_seconds(60),
                         net::SimTime::from_minutes(10));
  util::ThreadPool pool(1);
  for (std::int64_t m = 0; m < 30; ++m) {
    pop.step(net::SimTime::from_minutes(static_cast<double>(m)), all(1.0),
             all(60.0), 1.0, pool);
  }
  const EndUserReport& report = pop.report();
  ASSERT_TRUE(report.enabled);
  EXPECT_DOUBLE_EQ(report.success_rate(), 1.0);
  // Multi-hour TTLs over a 50-name space: the cache absorbs most lookups.
  EXPECT_GT(report.cache_hit_rate(), 0.5);
  EXPECT_EQ(report.retries_per_query(), 0.0);
}

TEST(Population, DeadLettersProduceRetriesAndFailures) {
  ResolverPopulation pop(small_config(), /*seed=*/2, net::SimTime(0),
                         net::SimTime::from_minutes(10),
                         net::SimTime::from_seconds(60),
                         net::SimTime::from_minutes(10));
  util::ThreadPool pool(1);
  for (std::int64_t m = 0; m < 10; ++m) {
    pop.step(net::SimTime::from_minutes(static_cast<double>(m)), all(0.0),
             all(60.0), 1.0, pool);
  }
  const EndUserReport& report = pop.report();
  // Nothing ever answers: every root-bound query exhausts its attempts.
  EXPECT_DOUBLE_EQ(report.success_rate(), 0.0);
  EXPECT_GT(report.retries_per_query(), 0.0);
  EXPECT_GT(report.added_latency_ms(), 1000.0);  // timeout-dominated
}

TEST(Population, CacheLessClientsSendEveryQueryRootward) {
  PopulationConfig config = small_config();
  config.enable_cache = false;
  ResolverPopulation pop(config, /*seed=*/3, net::SimTime(0),
                         net::SimTime::from_minutes(10),
                         net::SimTime::from_seconds(60),
                         net::SimTime::from_minutes(10));
  util::ThreadPool pool(1);
  for (std::int64_t m = 0; m < 10; ++m) {
    pop.step(net::SimTime::from_minutes(static_cast<double>(m)), all(1.0),
             all(60.0), 1.0, pool);
  }
  const EndUserReport& report = pop.report();
  std::uint64_t clients = 0, roots = 0, hits = 0;
  for (const std::uint64_t q : report.client_queries) clients += q;
  for (const std::uint64_t q : report.root_queries) roots += q;
  for (const std::uint64_t h : report.cache_hits) hits += h;
  EXPECT_GT(clients, 0u);
  EXPECT_EQ(hits, 0u);
  EXPECT_EQ(roots, clients);
}

TEST(Population, EmptyReportAggregatesAreNaN) {
  EndUserReport report;
  EXPECT_TRUE(std::isnan(report.success_rate()));
  EXPECT_TRUE(std::isnan(report.cache_hit_rate()));
  EXPECT_TRUE(std::isnan(report.retries_per_query()));
  EXPECT_TRUE(std::isnan(report.added_latency_ms()));
  EXPECT_TRUE(std::isnan(
      report.success_rate_between(0, net::SimTime::from_hours(1).ms)));
}

// The determinism contract at the unit level: identical inputs through a
// serial pool and a 4-lane pool produce a bit-identical report (fixed
// shard layout, per-(resolver, step) RNG streams, shard-order merge).
TEST(Population, ReportBitIdenticalAcrossPoolSizes) {
  const auto drive = [](util::ThreadPool& pool) {
    ResolverPopulation pop(small_config(), /*seed=*/7, net::SimTime(0),
                           net::SimTime::from_minutes(20),
                           net::SimTime::from_seconds(60),
                           net::SimTime::from_minutes(10));
    for (std::int64_t m = 0; m < 20; ++m) {
      // Degraded middle phase, flash-crowd demand at the end: exercise
      // retries, failures, and the demand-scale path.
      const double health = (m >= 5 && m < 12) ? 0.4 : 1.0;
      const double demand = m >= 15 ? 2.5 : 1.0;
      pop.step(net::SimTime::from_minutes(static_cast<double>(m)),
               all(health), all(80.0), demand, pool);
    }
    return pop.report();
  };
  util::ThreadPool serial(1);
  util::ThreadPool pooled(4);
  const EndUserReport a = drive(serial);
  const EndUserReport b = drive(pooled);
  ASSERT_GT(a.client_queries.size(), 0u);
  EXPECT_EQ(a.digest(), b.digest())
      << "resolver population diverged between 1 and 4 pool threads";
  EXPECT_EQ(a.client_queries, b.client_queries);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.latency_sum_ms, b.latency_sum_ms);
}

TEST(Population, DigestCoversEveryCounter) {
  EndUserReport a;
  a.enabled = true;
  a.bin_ms = 1;
  a.client_queries = {5};
  a.cache_hits = {1};
  a.root_queries = {4};
  a.retries = {2};
  a.failures = {1};
  a.latency_sum_ms = {10.0};
  EndUserReport b = a;
  EXPECT_EQ(a.digest(), b.digest());
  b.latency_sum_ms = {10.000001};
  EXPECT_NE(a.digest(), b.digest());
  b = a;
  b.retries = {3};
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Population, SuccessRateBetweenSlicesTheWindow) {
  EndUserReport report;
  report.enabled = true;
  report.start_ms = 0;
  report.bin_ms = 1000;
  report.client_queries = {10, 10, 10};
  report.failures = {0, 5, 10};
  report.cache_hits = {0, 0, 0};
  report.root_queries = {10, 10, 10};
  report.retries = {0, 0, 0};
  report.latency_sum_ms = {0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(report.success_rate_between(0, 1000), 1.0);
  EXPECT_DOUBLE_EQ(report.success_rate_between(1000, 2000), 0.5);
  EXPECT_DOUBLE_EQ(report.success_rate_between(2000, 3000), 0.0);
  EXPECT_DOUBLE_EQ(report.success_rate_between(0, 3000), 0.5);
}

}  // namespace
}  // namespace rootstress::resolver
