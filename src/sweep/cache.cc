#include "sweep/cache.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <system_error>

#include "fault/schedule.h"
#include "playbook/rules.h"

namespace rootstress::sweep {

namespace {

/// Fingerprint-safe number: JSON has no Inf/NaN (dump would emit null and
/// collapse distinct configs), so map them to tagged strings.
obs::JsonValue fp(double v) {
  if (std::isnan(v)) return obs::JsonValue("nan");
  if (std::isinf(v)) return obs::JsonValue(v > 0 ? "inf" : "-inf");
  return obs::JsonValue(v);
}

obs::JsonValue fp_topology(const bgp::TopologyConfig& t) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("tier1_count", obs::JsonValue(t.tier1_count));
  doc.set("tier2_per_region", obs::JsonValue(t.tier2_per_region));
  doc.set("stub_count", obs::JsonValue(t.stub_count));
  doc.set("providers_per_tier2", obs::JsonValue(t.providers_per_tier2));
  doc.set("peers_per_tier2", obs::JsonValue(t.peers_per_tier2));
  doc.set("providers_per_stub", obs::JsonValue(t.providers_per_stub));
  doc.set("regional_attachment", fp(t.regional_attachment));
  doc.set("seed", obs::JsonValue(t.seed));
  return doc;
}

obs::JsonValue fp_policy(const anycast::StressPolicy& p) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("withdraw_overload", fp(p.withdraw_overload));
  doc.set("session_failure_per_minute", fp(p.session_failure_per_minute));
  doc.set("recover_after_ms", obs::JsonValue(p.recover_after.ms));
  doc.set("recover_utilization", fp(p.recover_utilization));
  doc.set("partial_withdraw", obs::JsonValue(p.partial_withdraw));
  return doc;
}

obs::JsonValue fp_deployment(const anycast::RootDeployment::Config& d) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("seed", obs::JsonValue(d.seed));
  doc.set("topology", fp_topology(d.topology));
  doc.set("include_nl", obs::JsonValue(d.include_nl));
  doc.set("default_facility_uplink_gbps", fp(d.default_facility_uplink_gbps));
  doc.set("capacity_scale", fp(d.capacity_scale));
  if (d.force_policy.has_value()) {
    doc.set("force_policy", fp_policy(*d.force_policy));
  }
  doc.set("rrl_enabled", obs::JsonValue(d.rrl_enabled));
  // Absent entirely for root-table deployments so their keys match
  // pre-scale-family caches (same convention as fault_schedule).
  if (d.synthetic.has_value()) {
    obs::JsonValue syn = obs::JsonValue::object();
    syn.set("services", obs::JsonValue(d.synthetic->services));
    syn.set("sites_per_service",
            obs::JsonValue(d.synthetic->sites_per_service));
    syn.set("global_fraction", fp(d.synthetic->global_fraction));
    syn.set("site_capacity_qps", fp(d.synthetic->site_capacity_qps));
    syn.set("peer_stubs_per_site",
            obs::JsonValue(d.synthetic->peer_stubs_per_site));
    doc.set("synthetic", std::move(syn));
  }
  return doc;
}

obs::JsonValue fp_botnet(const attack::BotnetConfig& b) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("group_count", obs::JsonValue(b.group_count));
  doc.set("eu_share", fp(b.eu_share));
  doc.set("na_share", fp(b.na_share));
  doc.set("as_share", fp(b.as_share));
  doc.set("size_skew", fp(b.size_skew));
  doc.set("spoof_uniform_fraction", fp(b.spoof_uniform_fraction));
  doc.set("heavy_hitters", obs::JsonValue(b.heavy_hitters));
  doc.set("seed", obs::JsonValue(b.seed));
  return doc;
}

obs::JsonValue fp_legit(const attack::LegitConfig& l) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("per_letter_qps", fp(l.per_letter_qps));
  doc.set("retry_fraction", fp(l.retry_fraction));
  doc.set("resolver_pool", fp(l.resolver_pool));
  doc.set("query_payload_bytes", fp(l.query_payload_bytes));
  doc.set("response_payload_bytes", fp(l.response_payload_bytes));
  doc.set("seed", obs::JsonValue(l.seed));
  return doc;
}

obs::JsonValue fp_schedule(const attack::AttackSchedule& schedule) {
  obs::JsonValue events = obs::JsonValue::array();
  for (const auto& e : schedule.events()) {
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("begin_ms", obs::JsonValue(e.when.begin.ms));
    doc.set("end_ms", obs::JsonValue(e.when.end.ms));
    doc.set("per_letter_qps", fp(e.per_letter_qps));
    doc.set("qname", obs::JsonValue(e.qname));
    doc.set("query_payload_bytes", fp(e.query_payload_bytes));
    doc.set("response_payload_bytes", fp(e.response_payload_bytes));
    doc.set("duplicate_fraction", fp(e.duplicate_fraction));
    doc.set("spillover_fraction", fp(e.spillover_fraction));
    events.push_back(std::move(doc));
  }
  return events;
}

obs::JsonValue fp_population(const atlas::PopulationConfig& p) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("vp_count", obs::JsonValue(p.vp_count));
  doc.set("europe_share", fp(p.europe_share));
  doc.set("old_firmware_share", fp(p.old_firmware_share));
  doc.set("hijacked_share", fp(p.hijacked_share));
  doc.set("seed", obs::JsonValue(p.seed));
  return doc;
}

obs::JsonValue fp_collector(const bgp::CollectorConfig& c) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("peer_count", obs::JsonValue(c.peer_count));
  doc.set("ambient_visibility", fp(c.ambient_visibility));
  doc.set("na_bias", fp(c.na_bias));
  doc.set("seed", obs::JsonValue(c.seed));
  return doc;
}

}  // namespace

obs::JsonValue scenario_fingerprint(const sim::ScenarioConfig& config) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("seed", obs::JsonValue(config.seed));
  // `threads` and `telemetry` are intentionally absent: result-invariant.
  doc.set("deployment", fp_deployment(config.deployment));
  doc.set("botnet", fp_botnet(config.botnet));
  doc.set("legit", fp_legit(config.legit));
  doc.set("schedule", fp_schedule(config.schedule));
  doc.set("start_ms", obs::JsonValue(config.start.ms));
  doc.set("end_ms", obs::JsonValue(config.end.ms));
  doc.set("step_ms", obs::JsonValue(config.step.ms));
  doc.set("population", fp_population(config.population));
  doc.set("probe_letters",
          obs::JsonValue(std::string(config.probe_letters.begin(),
                                     config.probe_letters.end())));
  doc.set("probe_begin_ms", obs::JsonValue(config.probe_window.begin.ms));
  doc.set("probe_end_ms", obs::JsonValue(config.probe_window.end.ms));
  doc.set("collect_records", obs::JsonValue(config.collect_records));
  doc.set("bin_width_ms", obs::JsonValue(config.bin_width.ms));
  doc.set("collect_rssac", obs::JsonValue(config.collect_rssac));
  doc.set("enable_collector", obs::JsonValue(config.enable_collector));
  doc.set("collector", fp_collector(config.collector));
  doc.set("maintenance_flap_per_step", fp(config.maintenance_flap_per_step));
  doc.set("adaptive_defense", obs::JsonValue(config.adaptive_defense));
  // The playbook name is a display label; playbook_fingerprint covers
  // only the rule/signal/delay content that shapes results.
  if (config.playbook.has_value()) {
    doc.set("playbook", playbook::playbook_fingerprint(*config.playbook));
  }
  // Same convention as the playbook: the schedule name is a display
  // label; fault_fingerprint covers only the injector content. Absent
  // entirely for fault-free runs so their keys match pre-fault caches
  // (modulo the version salt).
  if (!config.fault_schedule.empty()) {
    doc.set("fault_schedule", fault::fault_fingerprint(config.fault_schedule));
  }
  // Absent when unset, like the playbook and fault blocks: profile-free
  // configs fingerprint exactly as before the resolver population existed
  // (modulo the version salt).
  if (config.resolver_profile.has_value()) {
    doc.set("resolver_profile",
            resolver::population_fingerprint(*config.resolver_profile));
  }
  return doc;
}

std::uint64_t config_hash(const sim::ScenarioConfig& config,
                          std::string_view salt) {
  std::string text = scenario_fingerprint(config).dump();
  text.push_back('\x1f');
  text.append(salt);
  // FNV-1a 64.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

RunCache::RunCache(std::filesystem::path dir, std::string salt)
    : dir_(std::move(dir)), salt_(std::move(salt)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort
}

std::uint64_t RunCache::key(const sim::ScenarioConfig& config) const {
  return config_hash(config, salt_);
}

std::filesystem::path RunCache::entry_path(std::uint64_t key) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.json",
                static_cast<unsigned long long>(key));
  return dir_ / name;
}

std::optional<RunSummary> RunCache::load(std::uint64_t key) {
  // The directory is shared by concurrent readers and writers (fabric
  // workers, parallel campaigns), so anything found on disk is treated
  // as a hint: a truncated, torn, garbled, or vanished entry is a miss
  // (counted in `invalid`), never a campaign failure.
  bool present = false;
  std::optional<std::string> text;
  try {
    std::error_code ec;
    const std::filesystem::path path = entry_path(key);
    present = std::filesystem::exists(path, ec);
    if (present && std::filesystem::is_regular_file(path, ec)) {
      std::ifstream in(path);
      if (in) {
        std::ostringstream buffer;
        buffer << in.rdbuf();
        if (!in.bad()) text = buffer.str();
      }
    }
  } catch (...) {
    text.reset();  // filesystem/alloc hiccup: a miss, not an abort
  }
  if (!text.has_value()) {
    // Present but unreadable (a directory squatting on the name, a
    // permission problem, a vanished-mid-read file) is an invalid entry;
    // plain absence is an ordinary miss.
    if (present) invalid_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const auto doc = obs::json_parse(*text);
  // The key already encodes the salt, but entries copied across versions
  // can land under a colliding name — verify the stored salt too.
  const obs::JsonValue* salt_doc = doc.has_value() ? doc->find("salt") : nullptr;
  const bool salt_matches = salt_doc != nullptr &&
                            salt_doc->kind() == obs::JsonValue::Kind::kString &&
                            salt_doc->as_string() == salt_;
  const obs::JsonValue* summary_doc =
      doc.has_value() && salt_matches ? doc->find("summary") : nullptr;
  std::optional<RunSummary> summary =
      summary_doc != nullptr ? summary_from_json(*summary_doc) : std::nullopt;
  if (!summary.has_value()) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return summary;
}

void RunCache::store(std::uint64_t key, const RunSummary& summary) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("salt", obs::JsonValue(salt_));
  doc.set("summary", summary_to_json(summary));

  const std::filesystem::path path = entry_path(key);
  // Temp-then-rename so readers never observe a torn entry; the suffix
  // keeps concurrent same-key writers (identical content) from colliding
  // mid-write.
  std::filesystem::path tmp = path;
  tmp += ".";
  tmp += std::to_string(stores_.fetch_add(1, std::memory_order_relaxed));
  tmp += ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return;
    out << doc.dump() << '\n';
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

CacheStats RunCache::stats() const noexcept {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.invalid = invalid_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rootstress::sweep
