#include "atlas/trace_io.h"

#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

namespace rootstress::atlas {

namespace {

const char* outcome_name(ProbeOutcome outcome) {
  switch (outcome) {
    case ProbeOutcome::kSite: return "site";
    case ProbeOutcome::kError: return "error";
    case ProbeOutcome::kTimeout: return "timeout";
  }
  return "?";
}

std::optional<ProbeOutcome> outcome_from(std::string_view name) {
  if (name == "site") return ProbeOutcome::kSite;
  if (name == "error") return ProbeOutcome::kError;
  if (name == "timeout") return ProbeOutcome::kTimeout;
  return std::nullopt;
}

/// Splits a CSV line (no quoting needed: our fields never contain commas).
std::vector<std::string_view> split(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    fields.push_back(line.substr(
        start, comma == std::string_view::npos ? std::string_view::npos
                                               : comma - start));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return fields;
}

/// Parses `text` into `out`, rejecting trailing junk, integers outside
/// T's range (no silent narrowing), and non-finite floating values.
template <typename T>
bool parse_num(std::string_view text, T& out) {
  const auto* end = text.data() + text.size();
  if constexpr (std::is_floating_point_v<T>) {
    // from_chars for doubles is fine on this toolchain, but keep strtod
    // compatibility via stringstream-free parsing.
    char* parse_end = nullptr;
    const std::string owned(text);
    out = static_cast<T>(std::strtod(owned.c_str(), &parse_end));
    return parse_end == owned.c_str() + owned.size() && !owned.empty() &&
           std::isfinite(out);
  } else {
    const auto [next, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && next == end;
  }
}

/// The shortest text that parses back to exactly `v`.
std::string exact(double v) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, result.ptr);
}

}  // namespace

void write_records_csv(const RecordSet& records, std::ostream& os) {
  os << "vp,t_s,letter,outcome,site,server,rtt_ms,rcode\n";
  for (const auto& r : records) {
    os << r.vp << ',' << r.t_s << ',' << static_cast<int>(r.letter_index)
       << ',' << outcome_name(r.outcome) << ',' << r.site_id << ','
       << static_cast<int>(r.server) << ',' << r.rtt_ms << ','
       << static_cast<int>(r.rcode) << '\n';
  }
}

std::optional<RecordSet> read_records_csv(std::istream& is,
                                          std::size_t* bad_row) {
  RecordSet records;
  std::string line;
  std::size_t row = 0;
  auto fail = [&](std::size_t at) -> std::optional<RecordSet> {
    if (bad_row != nullptr) *bad_row = at;
    return std::nullopt;
  };
  if (!std::getline(is, line) || !line.starts_with("vp,")) return fail(0);
  while (std::getline(is, line)) {
    ++row;
    if (line.empty()) continue;
    const auto fields = split(line);
    if (fields.size() != 8) return fail(row);
    ProbeRecord r;
    const auto outcome = outcome_from(fields[3]);
    if (!parse_num(fields[0], r.vp) || !parse_num(fields[1], r.t_s) ||
        !parse_num(fields[2], r.letter_index) || !outcome ||
        !parse_num(fields[4], r.site_id) || !parse_num(fields[5], r.server) ||
        !parse_num(fields[6], r.rtt_ms) || !parse_num(fields[7], r.rcode)) {
      return fail(row);
    }
    r.outcome = *outcome;
    records.push_back(r);
  }
  return records;
}

void write_vps_csv(const std::vector<VantagePoint>& vps, std::ostream& os) {
  os << "id,as_index,address,lat,lon,region,firmware,hijacked,phase_ms\n";
  for (const auto& vp : vps) {
    os << vp.id << ',' << vp.as_index << ',' << vp.address.to_string() << ','
       << exact(vp.location.lat) << ',' << exact(vp.location.lon) << ','
       << vp.region << ',' << vp.firmware << ',' << (vp.hijacked ? 1 : 0)
       << ',' << vp.phase_ms << '\n';
  }
}

std::optional<std::vector<VantagePoint>> read_vps_csv(std::istream& is,
                                                      std::size_t* bad_row) {
  std::vector<VantagePoint> vps;
  std::string line;
  std::size_t row = 0;
  auto fail = [&](std::size_t at) -> std::optional<std::vector<VantagePoint>> {
    if (bad_row != nullptr) *bad_row = at;
    return std::nullopt;
  };
  if (!std::getline(is, line) || !line.starts_with("id,")) return fail(0);
  while (std::getline(is, line)) {
    ++row;
    if (line.empty()) continue;
    const auto fields = split(line);
    if (fields.size() != 9) return fail(row);
    VantagePoint vp;
    unsigned hijacked = 0;
    const auto addr = net::Ipv4Addr::parse(fields[2]);
    if (!parse_num(fields[0], vp.id) || !parse_num(fields[1], vp.as_index) ||
        !addr || !parse_num(fields[3], vp.location.lat) ||
        !parse_num(fields[4], vp.location.lon) ||
        !parse_num(fields[6], vp.firmware) ||
        !parse_num(fields[7], hijacked) || hijacked > 1 ||
        !parse_num(fields[8], vp.phase_ms)) {
      return fail(row);
    }
    vp.address = *addr;
    vp.region = std::string(fields[5]);
    vp.hijacked = hijacked == 1;
    vps.push_back(std::move(vp));
  }
  return vps;
}

}  // namespace rootstress::atlas
