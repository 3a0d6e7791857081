// Geography: site/vantage-point locations and the propagation RTT model.
//
// The paper identifies anycast sites by nearby-airport code ("X-APT",
// §2.4.1); we keep the same convention. Latency between a vantage point and
// a site is modeled as great-circle distance over fiber with a path-stretch
// factor, which reproduces the paper's observation that a catchment shift
// (e.g. H-Root east coast -> west coast) shows up as an RTT step.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace rootstress::net {

/// A point on the globe (degrees).
struct GeoPoint {
  double lat = 0.0;
  double lon = 0.0;
};

/// Great-circle distance in kilometers (haversine).
double distance_km(GeoPoint a, GeoPoint b) noexcept;

/// Baseline network round-trip time between two points, in milliseconds:
/// fiber propagation at ~200 km/ms with a 1.4x path-stretch factor plus a
/// small constant for first/last-mile hops. Excludes queueing delay.
double base_rtt_ms(GeoPoint a, GeoPoint b) noexcept;

/// A named location: an IATA-style code plus coordinates and region.
struct Location {
  std::string code;      ///< three-letter airport code, e.g. "AMS"
  GeoPoint point;
  std::string region;    ///< "EU", "NA", "SA", "AS", "OC", "AF", "ME"
};

/// Looks up a known airport code; nullopt if unknown.
std::optional<Location> find_location(std::string_view code);

/// All known locations (a curated worldwide set including every site code
/// the paper's figures name for E-, K-, and D-Root).
std::span<const Location> all_locations();

}  // namespace rootstress::net
