#include "sweep/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "resolver/population.h"
#include "sim/scenario_builder.h"
#include "util/rng.h"

namespace rootstress::sweep {
namespace {

namespace fs = std::filesystem;

sim::ScenarioConfig base_config() {
  return sim::ScenarioBuilder::november_2015()
      .fluid_only()
      .topology_stubs(200)
      .duration(net::SimTime::from_hours(10))
      .build();
}

RunSummary sample_summary() {
  RunSummary summary;
  summary.config_hash = 0xdeadbeefcafef00dull;
  // Deliberately awkward doubles: non-terminating binary fractions, a
  // huge magnitude, a denormal-adjacent tiny value.
  summary.mean_served_attacked = 1.0 / 3.0;
  summary.worst_letter_loss = 0.1 + 0.2;
  summary.record_count = 849576;
  summary.route_changes = 123776;
  summary.kept_vps = 389;
  summary.rssac_day0_queries = 1.23456789012345e12;
  summary.playbook_activations = 7;
  summary.playbook_vetoes = 2;
  summary.time_to_mitigation_ms = 123'456;
  LetterCellSummary b;
  b.letter = 'B';
  b.attacked = true;
  b.served_fraction = 0.07000000000000001;
  b.baseline_vps = 389;
  b.min_vps = 12;
  b.worst_loss = 1.0 - 12.0 / 389.0;
  b.median_rtt_quiet_ms = 31.25;
  b.median_rtt_event_ms = 1e-308;
  b.site_flips = 3;
  b.route_changes = 42;
  summary.letters.push_back(b);
  return summary;
}

/// `text` with the value after the first `"key":` replaced by `value`.
std::string with_field(std::string text, const std::string& key,
                       const std::string& value) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = text.find(tag);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no field " << key;
    return text;
  }
  const std::size_t begin = at + tag.size();
  const std::size_t end = text.find_first_of(",}", begin);
  return text.replace(begin, end - begin, value);
}

std::optional<RunSummary> parse_summary(const std::string& text) {
  const auto doc = obs::json_parse(text);
  return doc.has_value() ? summary_from_json(*doc) : std::nullopt;
}

fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

TEST(ConfigHash, StableAndSeedSensitive) {
  const sim::ScenarioConfig config = base_config();
  EXPECT_EQ(config_hash(config), config_hash(config));

  sim::ScenarioConfig other = config;
  other.seed = config.seed + 1;
  EXPECT_NE(config_hash(config), config_hash(other));
}

TEST(ConfigHash, ThreadsAndTelemetryAreExcluded) {
  // Both are result-invariant by the determinism contract, so a summary
  // computed at any thread count must serve every other.
  sim::ScenarioConfig config = base_config();
  const std::uint64_t reference = config_hash(config);
  config.threads = 8;
  EXPECT_EQ(config_hash(config), reference);
  config.threads = 1;
  EXPECT_EQ(config_hash(config), reference);
  config.telemetry = !config.telemetry;
  EXPECT_EQ(config_hash(config), reference);
}

TEST(ConfigHash, ResultAffectingKnobsChangeTheHash) {
  const sim::ScenarioConfig config = base_config();
  const std::uint64_t reference = config_hash(config);

  sim::ScenarioConfig changed = config;
  changed.deployment.capacity_scale = 0.5;
  EXPECT_NE(config_hash(changed), reference);

  changed = config;
  changed.probe_letters = {'B'};
  EXPECT_NE(config_hash(changed), reference);

  changed = config;
  changed.maintenance_flap_per_step = 0.0;
  EXPECT_NE(config_hash(changed), reference);

  changed = config;
  changed.adaptive_defense = true;
  EXPECT_NE(config_hash(changed), reference);

  changed = config;
  changed.deployment.rrl_enabled = false;
  EXPECT_NE(config_hash(changed), reference);
}

TEST(ConfigHash, SyntheticDeploymentAbsentWhenUnsetKeyedWhenSet) {
  // Root-table deployments must keep their pre-scale-family keys: the
  // synthetic block only enters the fingerprint when it is set.
  const sim::ScenarioConfig config = base_config();
  const obs::JsonValue doc = scenario_fingerprint(config);
  const obs::JsonValue* deployment = doc.find("deployment");
  ASSERT_NE(deployment, nullptr);
  EXPECT_EQ(deployment->find("synthetic"), nullptr);
  const std::uint64_t reference = config_hash(config);

  sim::ScenarioConfig synthetic = config;
  synthetic.deployment.synthetic = anycast::SyntheticDeployment{};
  EXPECT_NE(config_hash(synthetic), reference);

  sim::ScenarioConfig resized = synthetic;
  resized.deployment.synthetic->sites_per_service += 8;
  EXPECT_NE(config_hash(resized), config_hash(synthetic));
}

TEST(ConfigHash, PlaybooksAreFingerprintedByContentNotName) {
  const sim::ScenarioConfig config = base_config();
  const std::uint64_t reference = config_hash(config);

  // Attaching any playbook (even monitor-only) changes the key.
  sim::ScenarioConfig with_playbook = config;
  with_playbook.playbook = playbook::Playbook::absorb_only();
  EXPECT_NE(config_hash(with_playbook), reference);

  // Distinct plans get distinct keys...
  sim::ScenarioConfig withdraw = config;
  withdraw.playbook = playbook::Playbook::withdraw_at_threshold(0.35);
  EXPECT_NE(config_hash(withdraw), config_hash(with_playbook));
  sim::ScenarioConfig tighter = config;
  tighter.playbook = playbook::Playbook::withdraw_at_threshold(0.25);
  EXPECT_NE(config_hash(tighter), config_hash(withdraw));

  // ...but renaming a plan does not move its cache identity.
  sim::ScenarioConfig renamed = withdraw;
  renamed.playbook->name = "same-rules-other-label";
  EXPECT_EQ(config_hash(renamed), config_hash(withdraw));
}

TEST(ConfigHash, ResolverProfilesAreFingerprintedByContentNotName) {
  const sim::ScenarioConfig config = base_config();
  const std::uint64_t reference = config_hash(config);
  // A profile-free config's fingerprint never mentions the feature, so
  // old keys for profile-free cells survive resolver-layer growth.
  EXPECT_EQ(scenario_fingerprint(config).dump().find("resolver_profile"),
            std::string::npos);

  sim::ScenarioConfig with_profile = config;
  with_profile.resolver_profile = resolver::PopulationConfig{};
  EXPECT_NE(config_hash(with_profile), reference);

  // Distinct profiles get distinct keys...
  sim::ScenarioConfig cacheless = config;
  cacheless.resolver_profile = resolver::PopulationConfig{};
  cacheless.resolver_profile->enable_cache = false;
  EXPECT_NE(config_hash(cacheless), config_hash(with_profile));

  // ...but renaming a profile does not move its cache identity.
  sim::ScenarioConfig renamed = with_profile;
  renamed.resolver_profile->name = "same-profile-other-label";
  EXPECT_EQ(config_hash(renamed), config_hash(with_profile));
}

TEST(ConfigHash, SaltChangesTheKey) {
  const sim::ScenarioConfig config = base_config();
  EXPECT_NE(config_hash(config, "rootstress-sim-v3"),
            config_hash(config, "rootstress-sim-v4"));
}

TEST(Summary, JsonRoundTripIsExact) {
  const RunSummary original = sample_summary();
  const auto parsed = summary_from_json(summary_to_json(original));
  ASSERT_TRUE(parsed.has_value());
  // Defaulted operator== — every field, doubles bit-for-bit.
  EXPECT_TRUE(*parsed == original);
}

TEST(Summary, NanFieldsRoundTripAsTaggedStringsNotNull) {
  RunSummary original = sample_summary();
  // Every NaN-able field unmeasured at once: fluid-only medians plus a
  // never-hot resilience block.
  original.letters[0].median_rtt_quiet_ms =
      std::numeric_limits<double>::quiet_NaN();
  original.letters[0].median_rtt_event_ms =
      std::numeric_limits<double>::quiet_NaN();
  original.worst_bin_answered = std::numeric_limits<double>::quiet_NaN();
  original.answered_bin_stddev = std::numeric_limits<double>::quiet_NaN();
  original.recovery_ms = -1;
  original.playbook_false_activations = 3;

  const obs::JsonValue doc = summary_to_json(original);
  const std::string text = doc.dump();
  // Tagged strings, never JSON null (null would silently decay to 0 in
  // sloppy readers) and never a bare unparseable `nan` token.
  EXPECT_NE(text.find("\"nan\""), std::string::npos);
  EXPECT_EQ(text.find("null"), std::string::npos);

  const auto reparsed = obs::json_parse(text);
  ASSERT_TRUE(reparsed.has_value());
  const auto parsed = summary_from_json(*reparsed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(*parsed == original);  // NaN-aware equality
  EXPECT_TRUE(std::isnan(parsed->worst_bin_answered));
  EXPECT_TRUE(std::isnan(parsed->letters[0].median_rtt_event_ms));
  EXPECT_EQ(parsed->recovery_ms, -1);
  EXPECT_EQ(parsed->playbook_false_activations, 3u);
}

TEST(Summary, ResilienceFieldsRoundTripWhenMeasured) {
  RunSummary original = sample_summary();
  original.worst_bin_answered = 0.4375;
  original.answered_bin_stddev = 0.0625;
  original.recovery_ms = 600'000;
  original.playbook_false_activations = 11;
  const auto parsed = summary_from_json(summary_to_json(original));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(*parsed == original);
}

TEST(Summary, RejectsForeignJson) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("unrelated", obs::JsonValue(1.0));
  EXPECT_FALSE(summary_from_json(doc).has_value());
}

TEST(Summary, RejectsOutOfRangeAndMistypedFields) {
  const std::string valid = summary_to_json(sample_summary()).dump();
  ASSERT_TRUE(parse_summary(valid).has_value());
  // The edit itself is sound: an in-range replacement still parses.
  ASSERT_TRUE(
      parse_summary(with_field(valid, "record_count", "0")).has_value());

  const struct {
    const char* key;
    const char* value;
  } rows[] = {
      {"record_count", "-1"},       // negative into an unsigned count
      {"record_count", "1e300"},    // beyond 64 bits
      {"record_count", "2.5"},      // not integral
      {"baseline_vps", "3e9"},      // beyond int
      {"attacked", "\"yes\""},      // not a JSON bool
      {"config_hash", "\"12x\""},   // trailing garbage after the digits
      {"playbook_vetoes", "-1"},    // negative into an unsigned count
  };
  for (const auto& row : rows) {
    EXPECT_FALSE(parse_summary(with_field(valid, row.key, row.value))
                     .has_value())
        << row.key << "=" << row.value;
  }
}

TEST(Summary, MutatedJsonIsRejectedOrRoundTrips) {
  const std::string text = summary_to_json(sample_summary()).dump();
  util::Rng rng(17);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string copy = text;
    copy[rng.below(copy.size())] = static_cast<char>(rng.below(256));
    const auto parsed = parse_summary(copy);
    if (!parsed.has_value()) continue;
    ++accepted;
    const auto again = parse_summary(summary_to_json(*parsed).dump());
    ASSERT_TRUE(again.has_value()) << copy;
    EXPECT_TRUE(*again == *parsed) << copy;
  }
  EXPECT_GT(accepted, 0);  // digit-for-digit swaps stay valid
}

TEST(RunCache, StoreThenLoadRoundTrips) {
  RunCache cache(fresh_dir("rs_cache_roundtrip"));
  const RunSummary summary = sample_summary();
  const std::uint64_t key = summary.config_hash;

  EXPECT_FALSE(cache.load(key).has_value());  // cold miss
  cache.store(key, summary);
  const auto loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(*loaded == summary);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(RunCache, SaltChangeInvalidatesEntries) {
  const fs::path dir = fresh_dir("rs_cache_salt");
  const sim::ScenarioConfig config = base_config();
  {
    RunCache cache(dir, "salt-a");
    RunSummary summary = sample_summary();
    summary.config_hash = cache.key(config);
    cache.store(summary.config_hash, summary);
    EXPECT_TRUE(cache.load(cache.key(config)).has_value());
  }
  // Same directory, new salt: the key moves, the old entry just misses.
  RunCache cache(dir, "salt-b");
  EXPECT_FALSE(cache.load(cache.key(config)).has_value());
}

TEST(RunCache, CorruptedEntryIsAMiss) {
  const fs::path dir = fresh_dir("rs_cache_corrupt");
  RunCache cache(dir);
  const RunSummary summary = sample_summary();
  cache.store(summary.config_hash, summary);

  // Truncate/garble every entry file behind the cache's back.
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ofstream out(entry.path(), std::ios::trunc);
    out << "{torn write";
  }
  EXPECT_FALSE(cache.load(summary.config_hash).has_value());
  EXPECT_GE(cache.stats().invalid, 1u);
}

TEST(RunCache, OutOfRangeEntryIsAnInvalidMiss) {
  const fs::path dir = fresh_dir("rs_cache_out_of_range");
  RunCache cache(dir);
  const RunSummary summary = sample_summary();
  cache.store(summary.config_hash, summary);

  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    in.close();
    std::ofstream(entry.path(), std::ios::trunc)
        << with_field(text, "record_count", "-1");
  }
  const CacheStats before = cache.stats();
  EXPECT_FALSE(cache.load(summary.config_hash).has_value());
  const CacheStats after = cache.stats();
  EXPECT_EQ(after.invalid, before.invalid + 1);
  EXPECT_EQ(after.misses, before.misses + 1);
}

TEST(RunCache, TruncatedAndGarbageEntriesAreCountedMisses) {
  // The fabric shares one cache directory across worker processes, so
  // every flavour of torn entry must degrade to a miss — never throw.
  const fs::path dir = fresh_dir("rs_cache_torn");
  RunCache cache(dir);
  const RunSummary summary = sample_summary();
  cache.store(1, summary);
  cache.store(2, summary);
  cache.store(3, summary);

  std::vector<fs::path> entries;
  for (const auto& entry : fs::directory_iterator(dir)) {
    entries.push_back(entry.path());
  }
  ASSERT_EQ(entries.size(), 3u);
  std::sort(entries.begin(), entries.end());
  // Entry 1: truncated to nothing. Entry 2: binary garbage. Entry 3:
  // valid JSON that is not a summary envelope.
  std::ofstream(entries[0], std::ios::trunc);
  std::ofstream(entries[1], std::ios::trunc | std::ios::binary)
      << "\xff\xfe\x7f garbage";
  std::ofstream(entries[2], std::ios::trunc) << "{\"salt\": 42}";

  const std::uint64_t invalid_before = cache.stats().invalid;
  EXPECT_FALSE(cache.load(1).has_value());
  EXPECT_FALSE(cache.load(2).has_value());
  EXPECT_FALSE(cache.load(3).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.invalid, invalid_before + 3);
  EXPECT_GE(stats.misses, 3u);

  // A corrupt entry is recoverable: the next store overwrites it.
  cache.store(1, summary);
  EXPECT_TRUE(cache.load(1).has_value());
}

TEST(RunCache, DirectorySquattingAnEntryPathIsAMissNotAFailure) {
  // A directory sitting where an entry file should be (operator mishap,
  // weird sync tooling) must read as invalid, not throw out of load().
  const fs::path dir = fresh_dir("rs_cache_squat");
  RunCache cache(dir);
  const RunSummary summary = sample_summary();
  cache.store(7, summary);
  fs::path entry;
  for (const auto& e : fs::directory_iterator(dir)) entry = e.path();
  fs::remove(entry);
  fs::create_directory(entry);

  EXPECT_FALSE(cache.load(7).has_value());
  EXPECT_GE(cache.stats().invalid, 1u);
}

TEST(RunCache, AbsentEntryIsAPlainMissNotInvalid) {
  RunCache cache(fresh_dir("rs_cache_absent"));
  EXPECT_FALSE(cache.load(0xabcdef).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.invalid, 0u);  // nothing was present to be invalid
}

TEST(RunCache, WrongSaltStoredEntryIsInvalidNotServed) {
  // A file present under the right key but carrying a different salt
  // (e.g. copied between machines) must not be served.
  const fs::path dir = fresh_dir("rs_cache_stale");
  const std::uint64_t key = 0x1234abcd5678ef01ull;
  {
    RunCache writer(dir, "old-salt");
    writer.store(key, sample_summary());
  }
  RunCache reader(dir, "new-salt");
  EXPECT_FALSE(reader.load(key).has_value());
}

}  // namespace
}  // namespace rootstress::sweep
