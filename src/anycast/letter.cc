#include "anycast/letter.h"

#include <stdexcept>
#include <unordered_set>

#include "net/geo.h"
#include "util/rng.h"

namespace rootstress::anycast {

namespace {

// Region mix for synthesized site placement: root letters concentrate in
// Europe and North America with a global tail.
struct RegionShare {
  const char* region;
  double weight;
};
constexpr RegionShare kSiteRegions[] = {
    {"EU", 0.35}, {"NA", 0.30}, {"AS", 0.14}, {"OC", 0.06},
    {"SA", 0.06}, {"ME", 0.04}, {"AF", 0.05},
};

/// Synthesizes `count` sites for a letter: unique airport codes first,
/// deterministic pseudo-codes afterwards (large letters exceed the
/// registry). `global_count` sites are global; the rest local.
std::vector<SiteSpec> synthesize_sites(int count, int global_count,
                                       double capacity, double buffer,
                                       util::Rng& rng) {
  std::vector<double> weights;
  for (const auto& rs : kSiteRegions) weights.push_back(rs.weight);

  std::vector<SiteSpec> sites;
  std::unordered_set<std::string> used;
  int synthetic = 0;
  while (static_cast<int>(sites.size()) < count) {
    const auto& region = kSiteRegions[rng.weighted(weights)];
    // Pick a random registry location in the region.
    const net::Location* pick = nullptr;
    std::size_t seen = 0;
    for (const auto& loc : net::all_locations()) {
      if (loc.region != region.region) continue;
      ++seen;
      if (rng.below(seen) == 0) pick = &loc;
    }
    if (pick == nullptr) continue;
    std::string code = pick->code;
    if (used.contains(code)) {
      // Exhausted metros get deterministic pseudo-codes ("Q" + 2 letters)
      // colocated near a real metro; the paper similarly observes more
      // sites than it can name for large letters.
      code = std::string{'Q', static_cast<char>('A' + (synthetic / 26) % 26),
                         static_cast<char>('A' + synthetic % 26)};
      ++synthetic;
      if (used.contains(code)) continue;
    }
    used.insert(code);
    SiteSpec spec;
    spec.code = code;
    spec.location = net::GeoPoint{pick->point.lat + rng.uniform(-1.0, 1.0),
                                  pick->point.lon + rng.uniform(-1.0, 1.0)};
    spec.region = region.region;
    spec.global = static_cast<int>(sites.size()) < global_count;
    spec.servers = 2 + static_cast<int>(rng.below(4));
    spec.capacity_qps = capacity * rng.uniform(0.7, 1.5);
    spec.buffer_packets = buffer * rng.uniform(0.7, 1.5);
    spec.peer_stubs = spec.global ? static_cast<int>(rng.below(4)) : 2;
    spec.stress_mode = rng.chance(0.5) ? ServerStressMode::kConcentrate
                                       : ServerStressMode::kShareCongestion;
    sites.push_back(std::move(spec));
  }
  return sites;
}

/// Builds a site from an explicit case-study entry.
SiteSpec site(std::string code, bool global, int servers, double capacity,
              double buffer, int peer_stubs, ServerStressMode mode,
              std::string facility = "", bool hub = false) {
  SiteSpec s;
  s.hub = hub;
  s.code = std::move(code);
  s.global = global;
  s.servers = servers;
  s.capacity_qps = capacity;
  s.buffer_packets = buffer;
  s.peer_stubs = peer_stubs;
  s.stress_mode = mode;
  s.facility = std::move(facility);
  return s;
}

constexpr auto kConc = ServerStressMode::kConcentrate;
constexpr auto kShare = ServerStressMode::kShareCongestion;

/// E-Root site list (Fig 6a codes). E is the paper's example of the
/// *withdraw* ("waterbed") response: hubs are under-provisioned relative
/// to their catchments and the letter's policy withdraws under overload.
std::vector<SiteSpec> e_root_sites() {
  std::vector<SiteSpec> s;
  // Hubs (global).
  s.push_back(site("AMS", true, 4, 320e3, 350e3, 8, kConc, "AMS-EU-DC", true));
  // FRA: absorber pinned in the shared Frankfurt facility; its event
  // load keeps the uplink saturated, which is what bleeds into D-FRA and
  // the co-located .nl-style tenants (§3.6).
  s.push_back(site("FRA", true, 4, 340e3, 350e3, 8, kShare, "FRA-EU-DC", true));
  s.back().policy_override = StressPolicy::absorber();
  s.push_back(site("LHR", true, 4, 300e3, 320e3, 6, kConc));
  s.push_back(site("ARC", true, 3, 280e3, 300e3, 2, kShare));
  s.push_back(site("CDG", true, 3, 260e3, 280e3, 4, kConc, "CDG-EU-DC"));
  s.push_back(site("VIE", true, 3, 250e3, 260e3, 3, kShare));
  s.push_back(site("QPG", true, 3, 240e3, 250e3, 2, kConc));
  s.push_back(site("ORD", true, 3, 260e3, 260e3, 3, kShare));
  s.push_back(site("KBP", true, 2, 200e3, 220e3, 2, kConc));
  s.push_back(site("ZRH", true, 2, 200e3, 210e3, 2, kShare));
  s.push_back(site("IAD", true, 3, 260e3, 260e3, 3, kConc));
  s.push_back(site("PAO", true, 3, 240e3, 250e3, 2, kShare));
  s.push_back(site("WAW", true, 2, 180e3, 200e3, 2, kConc));
  s.push_back(site("ATL", true, 2, 220e3, 230e3, 2, kShare));
  s.push_back(site("BER", true, 2, 180e3, 200e3, 2, kConc));
  s.push_back(site("SYD", true, 2, 180e3, 200e3, 2, kShare, "SYD-OC-DC"));
  s.back().policy_override = StressPolicy::absorber();
  s.push_back(site("SEA", true, 2, 200e3, 210e3, 2, kConc));
  // Tail (local / lightly observed).
  for (const char* code : {"NLV", "MIA", "NRT", "TRN", "AKL", "MAN", "BUR",
                           "LGA", "PER", "SNA", "LBA", "SIN", "DXB", "KGL",
                           "LAD"}) {
    s.push_back(site(code, false, 2, 150e3, 160e3, 2, kShare));
  }
  return s;
}

/// K-Root site list (Fig 6b codes). K is the paper's example of the
/// *absorb* ("mattress") response: AMS keeps serving with second-scale
/// bufferbloat, LHR/FRA shed transit but keep stuck peers.
std::vector<SiteSpec> k_root_sites() {
  std::vector<SiteSpec> s;
  // AMS: the committed degraded absorber -- stays announced through the
  // events, serving with second-scale bufferbloat (Fig 7).
  s.push_back(site("AMS", true, 6, 1500e3, 2500e3, 12, kShare, "", true));
  s.back().policy_override = StressPolicy::absorber();
  // LHR/FRA: well-connected (big catchments) but under-provisioned; they
  // shed transit under pressure and keep only stuck peers (Fig 11).
  s.push_back(site("LHR", true, 3, 150e3, 200e3, 10, kConc, "", true));
  s.push_back(site("FRA", true, 3, 260e3, 300e3, 8, kConc, "FRA-EU-DC", true));
  s.push_back(site("MIA", true, 3, 500e3, 520e3, 4, kShare));
  // Mid-tier European sites are BGP-scoped (K reported 18 local sites):
  // pinned catchments that neither wobble nor soak up displaced traffic.
  s.push_back(site("VIE", false, 3, 480e3, 500e3, 5, kShare));
  s.push_back(site("LED", false, 3, 450e3, 470e3, 5, kShare));
  // NRT: absorber whose servers share a congested ingress (Fig 12/13).
  s.push_back(site("NRT", true, 3, 320e3, 480e3, 4, kShare));
  s.back().policy_override = StressPolicy::absorber();
  s.push_back(site("MIL", false, 2, 380e3, 400e3, 5, kConc));
  s.push_back(site("ZRH", false, 2, 380e3, 400e3, 5, kShare));
  s.push_back(site("WAW", false, 2, 300e3, 330e3, 4, kConc));
  s.push_back(site("BNE", true, 2, 360e3, 380e3, 2, kShare));
  s.push_back(site("PRG", false, 2, 360e3, 380e3, 4, kConc));
  s.push_back(site("GVA", false, 2, 360e3, 380e3, 4, kShare));
  s.push_back(site("ATH", false, 2, 330e3, 350e3, 3, kConc));
  s.push_back(site("MKC", true, 2, 340e3, 350e3, 2, kShare));
  // Local tail (RIPE hosted sites are mostly BGP-scoped).
  for (const char* code : {"RIX", "THR", "BUD", "KAE", "BEG", "HEL", "PLX",
                           "OVB", "POZ", "ABO", "AVN", "BCN", "REY", "DOH",
                           "DEL", "RNO"}) {
    s.push_back(site(code, false, 2, 280e3, 300e3, 2, kShare));
  }
  return s;
}

/// D-Root sites. D was not attacked; FRA and SYD sit in facilities shared
/// with attacked letters and take collateral damage (§3.6, Fig 14).
std::vector<SiteSpec> d_root_sites(util::Rng& rng) {
  std::vector<SiteSpec> s;
  s.push_back(site("FRA", true, 3, 500e3, 520e3, 4, kShare, "FRA-EU-DC"));
  s.push_back(site("SYD", true, 3, 500e3, 520e3, 3, kShare, "SYD-OC-DC"));
  for (const char* code : {"AMS", "LHR", "IAD", "ORD", "NRT", "SIN", "GRU",
                           "JNB", "CDG", "WAW", "SEA", "YYZ", "HKG", "VIE",
                           "MAD", "DXB", "SCL", "MEX"}) {
    s.push_back(site(code, true, 3, 520e3 * rng.uniform(0.9, 1.3),
                     540e3, 2, kShare));
  }
  return s;
}

}  // namespace

std::vector<LetterConfig> root_letter_table(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<LetterConfig> table;

  auto add = [&table](LetterConfig cfg) { table.push_back(std::move(cfg)); };

  {  // A: Verisign, 5 global sites, high capacity, absorbed everything.
    LetterConfig a;
    a.letter = 'A';
    a.operator_name = "Verisign";
    a.reported_sites = 5;
    a.reported_global = 5;
    a.rssac_reporting = true;
    a.rssac_metering_loss = 0.0;
    a.probe_interval_s = 1800.0;  // Atlas probed A every 30 min at the time
    a.default_policy = StressPolicy::absorber();
    util::Rng r = rng.fork('A');
    a.sites = synthesize_sites(5, 5, 2500e3, 1000e3, r);
    add(std::move(a));
  }
  {  // B: USC/ISI, unicast single site (Los Angeles).
    LetterConfig b;
    b.letter = 'B';
    b.operator_name = "USC/ISI";
    b.unicast = true;
    b.reported_sites = 1;
    b.default_policy = StressPolicy::absorber();
    // Little RTT change under stress (paper §3.2): shallow buffers.
    b.sites = {site("LAX", true, 4, 140e3, 25e3, 2, kShare, "LAX-US-DC")};
    add(std::move(b));
  }
  {  // C: Cogent, 8 global sites.
    LetterConfig c;
    c.letter = 'C';
    c.operator_name = "Cogent";
    c.reported_sites = 8;
    c.reported_global = 8;
    // Sessions fail occasionally but recover slowly: C sees fewer flips
    // than E/H/K in Fig 8.
    StressPolicy policy = StressPolicy::fragile();
    policy.session_failure_per_minute = 0.02;
    policy.recover_after = net::SimTime::from_minutes(50);
    c.default_policy = policy;
    util::Rng r = rng.fork('C');
    c.sites = synthesize_sites(8, 8, 700e3, 750e3, r);
    add(std::move(c));
  }
  {  // D: U. Maryland; not attacked, collateral only.
    LetterConfig d;
    d.letter = 'D';
    d.operator_name = "U. Maryland";
    d.reported_sites = 87;
    d.reported_global = 18;
    d.reported_local = 69;
    d.attacked = false;
    d.default_policy = StressPolicy::absorber();
    util::Rng r = rng.fork('D');
    d.sites = d_root_sites(r);
    add(std::move(d));
  }
  {  // E: NASA; the withdraw/waterbed case study.
    LetterConfig e;
    e.letter = 'E';
    e.operator_name = "NASA";
    e.reported_sites = 12;
    e.reported_global = 1;
    e.reported_local = 11;
    e.default_policy = StressPolicy::withdrawer();
    e.sites = e_root_sites();
    add(std::move(e));
  }
  {  // F: ISC, many sites, mild impact.
    LetterConfig f;
    f.letter = 'F';
    f.operator_name = "ISC";
    f.reported_sites = 59;
    f.reported_global = 5;
    f.reported_local = 54;
    StressPolicy policy = StressPolicy::fragile();
    policy.session_failure_per_minute = 0.02;
    f.default_policy = policy;
    util::Rng r = rng.fork('F');
    f.sites = synthesize_sites(52, 5, 1100e3, 1150e3, r);
    add(std::move(f));
  }
  {  // G: U.S. DoD, 6 sites; visible RTT shifts under stress.
    LetterConfig g;
    g.letter = 'G';
    g.operator_name = "U.S. DoD";
    g.reported_sites = 6;
    g.reported_global = 6;
    StressPolicy policy = StressPolicy::withdrawer();
    policy.withdraw_overload = 3.5;
    g.default_policy = policy;
    util::Rng r = rng.fork('G');
    g.sites = synthesize_sites(6, 6, 500e3, 540e3, r);
    add(std::move(g));
  }
  {  // H: ARL, primary/backup (east coast primary, San Diego backup).
    LetterConfig h;
    h.letter = 'H';
    h.operator_name = "ARL";
    h.primary_backup = true;
    h.reported_sites = 2;
    h.rssac_reporting = true;
    h.rssac_metering_loss = 0.5;
    h.unique_counter_cap = 40e6;
    h.default_policy = StressPolicy::fragile();
    h.sites = {site("BWI", true, 3, 420e3, 460e3, 3, kShare),
               site("SAN", true, 3, 420e3, 460e3, 2, kShare, "SAN-US-DC")};
    add(std::move(h));
  }
  {  // I: Netnod, 49 global sites.
    LetterConfig i;
    i.letter = 'I';
    i.operator_name = "Netnod";
    i.reported_sites = 49;
    i.reported_global = 48;
    StressPolicy policy = StressPolicy::fragile();
    policy.session_failure_per_minute = 0.02;
    i.default_policy = policy;
    util::Rng r = rng.fork('I');
    i.sites = synthesize_sites(48, 48, 420e3, 450e3, r);
    add(std::move(i));
  }
  {  // J: Verisign, 98 reported sites; small loss.
    LetterConfig j;
    j.letter = 'J';
    j.operator_name = "Verisign";
    j.reported_sites = 98;
    j.reported_global = 66;
    j.reported_local = 32;
    j.rssac_reporting = true;
    j.rssac_metering_loss = 0.45;
    j.unique_counter_cap = 800e6;
    j.default_policy = StressPolicy::absorber();
    util::Rng r = rng.fork('J');
    j.sites = synthesize_sites(69, 50, 480e3, 500e3, r);
    add(std::move(j));
  }
  {  // K: RIPE; the absorb/mattress case study.
    LetterConfig k;
    k.letter = 'K';
    k.operator_name = "RIPE";
    k.reported_sites = 33;
    k.reported_global = 15;
    k.reported_local = 18;
    k.rssac_reporting = true;
    k.rssac_metering_loss = 0.5;
    k.unique_counter_cap = 45e6;
    StressPolicy policy = StressPolicy::fragile();
    policy.session_failure_per_minute = 0.10;
    policy.partial_withdraw = true;  // stuck peers remain (Fig 11)
    policy.recover_after = net::SimTime::from_minutes(30);
    k.default_policy = policy;
    k.sites = k_root_sites();
    add(std::move(k));
  }
  {  // L: ICANN, very many sites; not attacked.
    LetterConfig l;
    l.letter = 'L';
    l.operator_name = "ICANN";
    l.reported_sites = 144;
    l.reported_global = 144;
    l.attacked = false;
    l.rssac_reporting = true;
    l.unique_counter_cap = 40e6;
    l.default_policy = StressPolicy::absorber();
    util::Rng r = rng.fork('L');
    l.sites = synthesize_sites(113, 113, 600e3, 620e3, r);
    add(std::move(l));
  }
  {  // M: WIDE, 7 sites; not attacked.
    LetterConfig m;
    m.letter = 'M';
    m.operator_name = "WIDE";
    m.reported_sites = 7;
    m.reported_global = 6;
    m.reported_local = 1;
    m.attacked = false;
    m.default_policy = StressPolicy::absorber();
    util::Rng r = rng.fork('M');
    m.sites = synthesize_sites(6, 6, 900e3, 920e3, r);
    add(std::move(m));
  }
  return table;
}

const LetterConfig& find_letter(const std::vector<LetterConfig>& table,
                                char letter) {
  for (const auto& cfg : table) {
    if (cfg.letter == letter) return cfg;
  }
  throw std::out_of_range(std::string("no such letter: ") + letter);
}

}  // namespace rootstress::anycast
