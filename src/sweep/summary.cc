#include "sweep/summary.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "analysis/route_changes.h"
#include "anycast/letter.h"
#include "core/whatif.h"
#include "rssac/report.h"
#include "util/stats.h"

namespace rootstress::sweep {

namespace {

/// IEEE equality except NaN == NaN: summaries use NaN as an explicit
/// "unmeasured" value, and two unmeasured cells are the same cell.
bool same(double a, double b) noexcept {
  return a == b || (std::isnan(a) && std::isnan(b));
}

}  // namespace

bool LetterCellSummary::operator==(
    const LetterCellSummary& other) const noexcept {
  return letter == other.letter && attacked == other.attacked &&
         same(served_fraction, other.served_fraction) &&
         baseline_vps == other.baseline_vps && min_vps == other.min_vps &&
         same(worst_loss, other.worst_loss) &&
         same(median_rtt_quiet_ms, other.median_rtt_quiet_ms) &&
         same(median_rtt_event_ms, other.median_rtt_event_ms) &&
         site_flips == other.site_flips && route_changes == other.route_changes;
}

bool RunSummary::operator==(const RunSummary& other) const noexcept {
  return config_hash == other.config_hash &&
         same(mean_served_attacked, other.mean_served_attacked) &&
         same(worst_letter_loss, other.worst_letter_loss) &&
         record_count == other.record_count &&
         route_changes == other.route_changes && kept_vps == other.kept_vps &&
         same(rssac_day0_queries, other.rssac_day0_queries) &&
         playbook_activations == other.playbook_activations &&
         playbook_vetoes == other.playbook_vetoes &&
         time_to_mitigation_ms == other.time_to_mitigation_ms &&
         same(worst_bin_answered, other.worst_bin_answered) &&
         same(answered_bin_stddev, other.answered_bin_stddev) &&
         recovery_ms == other.recovery_ms &&
         playbook_false_activations == other.playbook_false_activations &&
         same(enduser_success_rate, other.enduser_success_rate) &&
         same(enduser_cache_hit_rate, other.enduser_cache_hit_rate) &&
         same(enduser_added_latency_ms, other.enduser_added_latency_ms) &&
         same(enduser_retries_per_query, other.enduser_retries_per_query) &&
         letters == other.letters;
}

namespace {

/// Whether `letter` takes fire at some point of the run: statically
/// attacked, or named by any pulse's rotating target sets.
bool letter_engaged(char letter, bool statically_attacked,
                    const fault::FaultSchedule& faults) {
  if (statically_attacked) return true;
  for (const auto& pulse : faults.pulses) {
    for (const auto& targets : pulse.pulse_targets) {
      if (std::find(targets.begin(), targets.end(), letter) != targets.end()) {
        return true;
      }
    }
  }
  return false;
}

/// Fills the RunSummary resilience block from the engaged letters' legit
/// served/failed series over the engagement span (first hot instant to
/// last, pulse envelopes included). Leaves the NaN / -1 defaults when the
/// run never gets hot or the span covers no usable bins.
void summarize_resilience(const sim::ScenarioConfig& config,
                          const sim::SimulationResult& result,
                          const std::vector<int>& engaged_services,
                          RunSummary& summary) {
  const fault::FaultSchedule& faults = config.fault_schedule;
  const net::SimTime first = faults.first_hot_begin(config.schedule);
  const net::SimTime last = faults.last_hot_end(config.schedule);
  if (first >= last || engaged_services.empty()) return;
  const auto& reference =
      result.service_served_legit_qps[static_cast<std::size_t>(
          engaged_services.front())];
  if (reference.bin_count() == 0) return;

  // Aggregate answered fraction per bin: sum of engaged letters' served
  // over served + failed (legit only; the attack stream is damage, not a
  // service obligation).
  std::vector<double> answered;
  answered.reserve(reference.bin_count());
  const auto bin_fraction = [&](std::size_t bin) -> double {
    double served = 0.0;
    double failed = 0.0;
    for (const int s : engaged_services) {
      served += result.service_served_legit_qps[static_cast<std::size_t>(s)]
                    .mean(bin);
      failed += result.service_failed_legit_qps[static_cast<std::size_t>(s)]
                    .mean(bin);
    }
    const double total = served + failed;
    return total > 0.0 ? served / total
                       : std::numeric_limits<double>::quiet_NaN();
  };

  for (std::size_t bin = 0; bin < reference.bin_count(); ++bin) {
    const std::int64_t begin = reference.bin_start(bin);
    const std::int64_t end = begin + reference.bin_ms();
    if (end <= first.ms || begin >= last.ms) continue;  // outside engagement
    const double fraction = bin_fraction(bin);
    if (!std::isnan(fraction)) answered.push_back(fraction);
  }
  if (!answered.empty()) {
    summary.worst_bin_answered = util::min_of(answered);
    // util::stddev returns 0 for n < 2, which would misread as "perfectly
    // steady"; a single engaged bin simply has no spread estimate.
    summary.answered_bin_stddev =
        answered.size() >= 2 ? util::stddev(answered)
                             : std::numeric_limits<double>::quiet_NaN();
  }

  // Recovery: the first post-attack bin whose aggregate answered fraction
  // is back to (essentially) one. Bins with no legit traffic at all count
  // as recovered — nothing is failing.
  for (std::size_t bin = 0; bin < reference.bin_count(); ++bin) {
    if (reference.bin_start(bin) < last.ms) continue;
    const double fraction = bin_fraction(bin);
    if (std::isnan(fraction) || fraction >= 0.999) {
      summary.recovery_ms = reference.bin_start(bin) - last.ms;
      break;
    }
  }

  // False activations: playbook actuations applied inside the engagement
  // span while the attack was not hot — withdraw/restore churn baited by
  // the quiet inter-pulse gaps.
  for (const std::int64_t t : result.playbook.activation_times_ms) {
    if (t < first.ms || t >= last.ms) continue;
    if (!faults.attack_hot(net::SimTime(t), config.schedule)) {
      ++summary.playbook_false_activations;
    }
  }
}

/// NaN/Inf-safe number encoding: finite doubles stay plain JSON numbers;
/// the values JSON cannot express become tagged strings ("nan", "inf",
/// "-inf") instead of silently collapsing to null or zero.
obs::JsonValue fp(double v) {
  if (std::isnan(v)) return obs::JsonValue(std::string("nan"));
  if (std::isinf(v)) {
    return obs::JsonValue(std::string(v > 0 ? "inf" : "-inf"));
  }
  return obs::JsonValue(v);
}

}  // namespace

RunSummary summarize(const sim::ScenarioConfig& config,
                     const core::EvaluationReport& report) {
  const sim::SimulationResult& result = report.result;
  RunSummary summary;
  summary.record_count = result.records.size();
  summary.route_changes = result.route_changes.size();
  summary.kept_vps = result.cleaning.kept_vps;

  // Which letters the event schedule targets is deployment metadata; the
  // letter table is deterministic (seed only perturbs site synthesis).
  const auto letter_table = anycast::root_letter_table(0);

  // Served fractions cover the attack windows, or the whole span when
  // the scenario has no schedule.
  std::vector<net::SimInterval> windows;
  for (const auto& event : config.schedule.events()) {
    windows.push_back(event.when);
  }
  if (windows.empty()) windows.push_back({result.start, result.end});

  double served_sum = 0.0;
  int attacked = 0;
  std::vector<int> engaged_services;
  for (const auto& ls : report.letters) {
    const int s = result.service_index(ls.letter);
    if (s < 0) continue;
    LetterCellSummary cell;
    cell.letter = ls.letter;
    cell.attacked = anycast::find_letter(letter_table, ls.letter).attacked;
    cell.served_fraction = core::served_fraction(result, s, windows);
    cell.baseline_vps = ls.baseline_vps;
    cell.min_vps = ls.min_vps;
    cell.worst_loss = ls.worst_loss;
    if (result.records.empty()) {
      // Fluid-only run: no probe records exist, so the medians are
      // unmeasured — not 0 ms, which would claim a perfect network.
      cell.median_rtt_quiet_ms = std::numeric_limits<double>::quiet_NaN();
      cell.median_rtt_event_ms = std::numeric_limits<double>::quiet_NaN();
    } else {
      cell.median_rtt_quiet_ms = ls.median_rtt_quiet_ms;
      cell.median_rtt_event_ms = ls.median_rtt_event_ms;
    }
    cell.site_flips = ls.site_flips;
    cell.route_changes = analysis::route_change_count(result, s);
    summary.worst_letter_loss =
        std::max(summary.worst_letter_loss, cell.worst_loss);
    if (cell.attacked) {
      served_sum += cell.served_fraction;
      ++attacked;
    }
    if (letter_engaged(cell.letter, cell.attacked, config.fault_schedule)) {
      engaged_services.push_back(s);
    }
    summary.letters.push_back(cell);
  }
  if (attacked > 0) summary.mean_served_attacked = served_sum / attacked;

  if (config.collect_rssac) {
    for (int li = 0; li < result.rssac.letter_count(); ++li) {
      summary.rssac_day0_queries += rssac::day_queries(result.rssac, li, 0);
    }
  }

  if (config.playbook.has_value()) {
    summary.playbook_activations = result.playbook.activations;
    summary.playbook_vetoes = result.playbook.vetoes;
    if (result.playbook.first_activation_ms >= 0 &&
        !config.schedule.events().empty()) {
      std::int64_t onset_ms = config.schedule.events().front().when.begin.ms;
      for (const auto& event : config.schedule.events()) {
        onset_ms = std::min(onset_ms, event.when.begin.ms);
      }
      summary.time_to_mitigation_ms =
          result.playbook.first_activation_ms - onset_ms;
    }
  }

  if (config.resolver_profile.has_value() && result.enduser.enabled) {
    summary.enduser_success_rate = result.enduser.success_rate();
    summary.enduser_cache_hit_rate = result.enduser.cache_hit_rate();
    summary.enduser_added_latency_ms = result.enduser.added_latency_ms();
    summary.enduser_retries_per_query = result.enduser.retries_per_query();
  }

  summarize_resilience(config, result, engaged_services, summary);
  return summary;
}

obs::JsonValue summary_to_json(const RunSummary& summary) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("config_hash",
          obs::JsonValue(std::to_string(summary.config_hash)));
  doc.set("mean_served_attacked", obs::JsonValue(summary.mean_served_attacked));
  doc.set("worst_letter_loss", obs::JsonValue(summary.worst_letter_loss));
  doc.set("record_count",
          obs::JsonValue(static_cast<std::uint64_t>(summary.record_count)));
  doc.set("route_changes",
          obs::JsonValue(static_cast<std::uint64_t>(summary.route_changes)));
  doc.set("kept_vps", obs::JsonValue(summary.kept_vps));
  doc.set("rssac_day0_queries", obs::JsonValue(summary.rssac_day0_queries));
  doc.set("playbook_activations",
          obs::JsonValue(summary.playbook_activations));
  doc.set("playbook_vetoes", obs::JsonValue(summary.playbook_vetoes));
  doc.set("time_to_mitigation_ms",
          obs::JsonValue(static_cast<double>(summary.time_to_mitigation_ms)));
  doc.set("worst_bin_answered", fp(summary.worst_bin_answered));
  doc.set("answered_bin_stddev", fp(summary.answered_bin_stddev));
  doc.set("recovery_ms",
          obs::JsonValue(static_cast<double>(summary.recovery_ms)));
  doc.set("playbook_false_activations",
          obs::JsonValue(summary.playbook_false_activations));
  doc.set("enduser_success_rate", fp(summary.enduser_success_rate));
  doc.set("enduser_cache_hit_rate", fp(summary.enduser_cache_hit_rate));
  doc.set("enduser_added_latency_ms", fp(summary.enduser_added_latency_ms));
  doc.set("enduser_retries_per_query", fp(summary.enduser_retries_per_query));
  obs::JsonValue letters = obs::JsonValue::array();
  for (const auto& cell : summary.letters) {
    obs::JsonValue l = obs::JsonValue::object();
    l.set("letter", obs::JsonValue(std::string(1, cell.letter)));
    l.set("attacked", obs::JsonValue(cell.attacked));
    l.set("served_fraction", obs::JsonValue(cell.served_fraction));
    l.set("baseline_vps", obs::JsonValue(cell.baseline_vps));
    l.set("min_vps", obs::JsonValue(cell.min_vps));
    l.set("worst_loss", obs::JsonValue(cell.worst_loss));
    l.set("median_rtt_quiet_ms", fp(cell.median_rtt_quiet_ms));
    l.set("median_rtt_event_ms", fp(cell.median_rtt_event_ms));
    l.set("site_flips", obs::JsonValue(cell.site_flips));
    l.set("route_changes", obs::JsonValue(cell.route_changes));
    letters.push_back(std::move(l));
  }
  doc.set("letters", std::move(letters));
  return doc;
}

namespace {

bool read_number(const obs::JsonValue& doc, const char* key, double* out) {
  const obs::JsonValue* v = doc.find(key);
  if (v == nullptr || v->kind() != obs::JsonValue::Kind::kNumber) return false;
  *out = v->as_number();
  return true;
}

using obs::read_integer;

/// Inverse of fp(): accepts a plain number or one of the tagged strings
/// "nan" / "inf" / "-inf".
bool read_fp_number(const obs::JsonValue& doc, const char* key, double* out) {
  const obs::JsonValue* v = doc.find(key);
  if (v == nullptr) return false;
  if (v->kind() == obs::JsonValue::Kind::kNumber) {
    *out = v->as_number();
    return true;
  }
  if (v->kind() != obs::JsonValue::Kind::kString) return false;
  const std::string& tag = v->as_string();
  if (tag == "nan") {
    *out = std::numeric_limits<double>::quiet_NaN();
  } else if (tag == "inf") {
    *out = std::numeric_limits<double>::infinity();
  } else if (tag == "-inf") {
    *out = -std::numeric_limits<double>::infinity();
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::optional<RunSummary> summary_from_json(const obs::JsonValue& doc) {
  if (doc.kind() != obs::JsonValue::Kind::kObject) return std::nullopt;
  RunSummary summary;
  // The 64-bit hash is stored as a decimal string: JSON numbers are
  // doubles and would round it. Only digits that fit in 64 bits parse.
  const obs::JsonValue* hash = doc.find("config_hash");
  if (hash == nullptr || hash->kind() != obs::JsonValue::Kind::kString) {
    return std::nullopt;
  }
  const std::string& hash_text = hash->as_string();
  const char* hash_end = hash_text.data() + hash_text.size();
  const auto [hash_ptr, hash_ec] =
      std::from_chars(hash_text.data(), hash_end, summary.config_hash);
  if (hash_ec != std::errc() || hash_ptr != hash_end) {
    return std::nullopt;
  }

  if (!read_number(doc, "mean_served_attacked", &summary.mean_served_attacked))
    return std::nullopt;
  if (!read_number(doc, "worst_letter_loss", &summary.worst_letter_loss))
    return std::nullopt;
  if (!read_integer(doc, "record_count", &summary.record_count))
    return std::nullopt;
  if (!read_integer(doc, "route_changes", &summary.route_changes))
    return std::nullopt;
  if (!read_integer(doc, "kept_vps", &summary.kept_vps)) return std::nullopt;
  if (!read_number(doc, "rssac_day0_queries", &summary.rssac_day0_queries))
    return std::nullopt;
  if (!read_integer(doc, "playbook_activations",
                    &summary.playbook_activations)) {
    return std::nullopt;
  }
  if (!read_integer(doc, "playbook_vetoes", &summary.playbook_vetoes))
    return std::nullopt;
  if (!read_integer(doc, "time_to_mitigation_ms",
                    &summary.time_to_mitigation_ms)) {
    return std::nullopt;
  }
  if (!read_fp_number(doc, "worst_bin_answered", &summary.worst_bin_answered))
    return std::nullopt;
  if (!read_fp_number(doc, "answered_bin_stddev",
                      &summary.answered_bin_stddev)) {
    return std::nullopt;
  }
  if (!read_integer(doc, "recovery_ms", &summary.recovery_ms))
    return std::nullopt;
  if (!read_integer(doc, "playbook_false_activations",
                    &summary.playbook_false_activations)) {
    return std::nullopt;
  }
  // Required fields (strict, like everything above): the code-version
  // salt bump that introduced them invalidates every older cache entry,
  // so no stored summary legitimately lacks them.
  if (!read_fp_number(doc, "enduser_success_rate",
                      &summary.enduser_success_rate)) {
    return std::nullopt;
  }
  if (!read_fp_number(doc, "enduser_cache_hit_rate",
                      &summary.enduser_cache_hit_rate)) {
    return std::nullopt;
  }
  if (!read_fp_number(doc, "enduser_added_latency_ms",
                      &summary.enduser_added_latency_ms)) {
    return std::nullopt;
  }
  if (!read_fp_number(doc, "enduser_retries_per_query",
                      &summary.enduser_retries_per_query)) {
    return std::nullopt;
  }

  const obs::JsonValue* letters = doc.find("letters");
  if (letters == nullptr || letters->kind() != obs::JsonValue::Kind::kArray) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < letters->size(); ++i) {
    const obs::JsonValue& l = (*letters)[i];
    LetterCellSummary cell;
    const obs::JsonValue* letter = l.find("letter");
    if (letter == nullptr || letter->kind() != obs::JsonValue::Kind::kString ||
        letter->as_string().size() != 1) {
      return std::nullopt;
    }
    cell.letter = letter->as_string()[0];
    const obs::JsonValue* attacked = l.find("attacked");
    if (attacked == nullptr ||
        attacked->kind() != obs::JsonValue::Kind::kBool) {
      return std::nullopt;
    }
    cell.attacked = attacked->as_bool();
    if (!read_number(l, "served_fraction", &cell.served_fraction))
      return std::nullopt;
    if (!read_integer(l, "baseline_vps", &cell.baseline_vps))
      return std::nullopt;
    if (!read_integer(l, "min_vps", &cell.min_vps)) return std::nullopt;
    if (!read_number(l, "worst_loss", &cell.worst_loss)) return std::nullopt;
    if (!read_fp_number(l, "median_rtt_quiet_ms", &cell.median_rtt_quiet_ms))
      return std::nullopt;
    if (!read_fp_number(l, "median_rtt_event_ms", &cell.median_rtt_event_ms))
      return std::nullopt;
    if (!read_integer(l, "site_flips", &cell.site_flips)) return std::nullopt;
    if (!read_integer(l, "route_changes", &cell.route_changes))
      return std::nullopt;
    summary.letters.push_back(cell);
  }
  return summary;
}

}  // namespace rootstress::sweep
