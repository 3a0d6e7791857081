#include "net/geo.h"

#include <cmath>
#include <numbers>
#include <vector>

namespace rootstress::net {

double distance_km(GeoPoint a, GeoPoint b) noexcept {
  constexpr double kEarthRadiusKm = 6371.0;
  const double to_rad = std::numbers::pi / 180.0;
  const double dlat = (b.lat - a.lat) * to_rad;
  const double dlon = (b.lon - a.lon) * to_rad;
  const double s1 = std::sin(dlat / 2.0);
  const double s2 = std::sin(dlon / 2.0);
  const double h =
      s1 * s1 + std::cos(a.lat * to_rad) * std::cos(b.lat * to_rad) * s2 * s2;
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

double base_rtt_ms(GeoPoint a, GeoPoint b) noexcept {
  constexpr double kFiberKmPerMs = 200.0;  // ~2/3 c
  constexpr double kPathStretch = 1.4;     // routes are not great circles
  constexpr double kEdgeMs = 3.0;          // first/last mile + processing
  const double one_way_ms = distance_km(a, b) * kPathStretch / kFiberKmPerMs;
  return 2.0 * one_way_ms + kEdgeMs;
}

namespace {
// A curated world airport set. Includes every site code the paper's
// figures name (E-, K-, D-Root case studies) plus enough global coverage
// to synthesize the other letters' deployments and the VP population.
const std::vector<Location>& locations() {
  static const std::vector<Location> kLocations = {
      // Europe
      {"AMS", {52.31, 4.76}, "EU"},    {"FRA", {50.03, 8.57}, "EU"},
      {"LHR", {51.47, -0.45}, "EU"},   {"CDG", {49.01, 2.55}, "EU"},
      {"VIE", {48.11, 16.57}, "EU"},   {"ZRH", {47.46, 8.55}, "EU"},
      {"WAW", {52.17, 20.97}, "EU"},   {"BER", {52.36, 13.50}, "EU"},
      {"KBP", {50.34, 30.89}, "EU"},   {"NLV", {47.06, 31.92}, "EU"},
      {"TRN", {45.20, 7.65}, "EU"},    {"MAN", {53.35, -2.28}, "EU"},
      {"LBA", {53.87, -1.66}, "EU"},   {"LED", {59.80, 30.26}, "EU"},
      {"MIL", {45.45, 9.28}, "EU"},    {"PRG", {50.10, 14.26}, "EU"},
      {"GVA", {46.24, 6.11}, "EU"},    {"ATH", {37.94, 23.94}, "EU"},
      {"RIX", {56.92, 23.97}, "EU"},   {"BUD", {47.44, 19.26}, "EU"},
      {"BEG", {44.82, 20.29}, "EU"},   {"HEL", {60.32, 24.96}, "EU"},
      {"POZ", {52.42, 16.83}, "EU"},   {"AVN", {43.90, 4.90}, "EU"},
      {"BCN", {41.30, 2.08}, "EU"},    {"REY", {64.13, -21.94}, "EU"},
      {"MAD", {40.49, -3.57}, "EU"},   {"DUB", {53.43, -6.25}, "EU"},
      {"OSL", {60.19, 11.10}, "EU"},   {"ARN", {59.65, 17.92}, "EU"},
      {"CPH", {55.62, 12.65}, "EU"},   {"BRU", {50.90, 4.48}, "EU"},
      {"LIS", {38.77, -9.13}, "EU"},   {"FCO", {41.80, 12.24}, "EU"},
      {"MUC", {48.35, 11.79}, "EU"},   {"SOF", {42.70, 23.41}, "EU"},
      {"OTP", {44.57, 26.09}, "EU"},   {"IST", {41.26, 28.74}, "EU"},
      {"KAE", {62.17, 25.67}, "EU"},   // Nordic K-Root host (paper: K-KAE)
      {"ABO", {60.51, 22.26}, "EU"},   // Turku/Åbo (paper: K-ABO)
      {"PLX", {50.35, 80.23}, "EU"},   // Semey; RIPE hosted-K in Kazakhstan
      {"OVB", {55.01, 82.65}, "EU"},   // Novosibirsk
      {"MOW", {55.75, 37.62}, "EU"},
      // North America
      {"IAD", {38.95, -77.45}, "NA"},  {"ORD", {41.97, -87.90}, "NA"},
      {"ATL", {33.64, -84.43}, "NA"},  {"MIA", {25.79, -80.29}, "NA"},
      {"SEA", {47.45, -122.30}, "NA"}, {"PAO", {37.46, -122.11}, "NA"},
      {"BUR", {34.20, -118.36}, "NA"}, {"LGA", {40.78, -73.87}, "NA"},
      {"SNA", {33.68, -117.87}, "NA"}, {"LAX", {33.94, -118.41}, "NA"},
      {"JFK", {40.64, -73.78}, "NA"},  {"SJC", {37.36, -121.93}, "NA"},
      {"DFW", {32.90, -97.04}, "NA"},  {"DEN", {39.86, -104.67}, "NA"},
      {"MKC", {39.12, -94.59}, "NA"},  {"RNO", {39.50, -119.77}, "NA"},
      {"SAN", {32.73, -117.19}, "NA"}, {"BWI", {39.18, -76.67}, "NA"},
      {"YYZ", {43.68, -79.63}, "NA"},  {"YVR", {49.19, -123.18}, "NA"},
      {"MEX", {19.44, -99.07}, "NA"},  {"PHX", {33.43, -112.01}, "NA"},
      {"BOS", {42.36, -71.01}, "NA"},  {"MSP", {44.88, -93.22}, "NA"},
      // South America
      {"GRU", {-23.44, -46.47}, "SA"}, {"EZE", {-34.82, -58.54}, "SA"},
      {"SCL", {-33.39, -70.79}, "SA"}, {"BOG", {4.70, -74.15}, "SA"},
      {"LIM", {-12.02, -77.11}, "SA"},
      // Asia
      {"NRT", {35.76, 140.39}, "AS"},  {"HND", {35.55, 139.78}, "AS"},
      {"HKG", {22.31, 113.91}, "AS"},  {"SIN", {1.36, 103.99}, "AS"},
      {"QPG", {1.36, 103.91}, "AS"},   {"ICN", {37.46, 126.44}, "AS"},
      {"PEK", {40.08, 116.58}, "AS"},  {"TPE", {25.08, 121.23}, "AS"},
      {"BOM", {19.09, 72.87}, "AS"},   {"DEL", {28.57, 77.10}, "AS"},
      {"KUL", {2.75, 101.71}, "AS"},   {"BKK", {13.69, 100.75}, "AS"},
      // Middle East
      {"DXB", {25.25, 55.36}, "ME"},   {"DOH", {25.27, 51.61}, "ME"},
      {"THR", {35.69, 51.31}, "ME"},   {"TLV", {32.01, 34.89}, "ME"},
      // Oceania
      {"SYD", {-33.95, 151.18}, "OC"}, {"BNE", {-27.38, 153.12}, "OC"},
      {"AKL", {-37.00, 174.79}, "OC"}, {"PER", {-31.94, 115.97}, "OC"},
      {"MEL", {-37.67, 144.84}, "OC"},
      // Africa
      {"JNB", {-26.14, 28.25}, "AF"},  {"NBO", {-1.32, 36.93}, "AF"},
      {"KGL", {-1.97, 30.14}, "AF"},   {"LAD", {-8.86, 13.23}, "AF"},
      {"CAI", {30.12, 31.41}, "AF"},   {"CPT", {-33.97, 18.60}, "AF"},
      // High-latitude / remote (paper lists E-ARC, Arctic Village AK)
      {"ARC", {68.11, -145.58}, "NA"},
  };
  return kLocations;
}
}  // namespace

std::optional<Location> find_location(std::string_view code) {
  for (const Location& loc : locations()) {
    if (loc.code == code) return loc;
  }
  return std::nullopt;
}

std::span<const Location> all_locations() { return locations(); }

}  // namespace rootstress::net
