// Measurement trace I/O.
//
// The paper's processed dataset was published for other researchers
// (§2.4, [41]); in that spirit, probe records and vantage-point metadata
// round-trip through CSV so external tooling (or a later session) can
// re-analyze a run without re-simulating it.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "atlas/probe.h"
#include "atlas/record.h"

namespace rootstress::atlas {

/// Writes records as CSV: vp,t_s,letter,outcome,site,server,rtt_ms,rcode.
/// Outcome is the enum name (site/error/timeout).
void write_records_csv(const RecordSet& records, std::ostream& os);

/// Parses records written by write_records_csv. Returns nullopt on any
/// malformed row, including a number outside its field's type (the error
/// row index is stored in `bad_row` if given). Every accepted record
/// writes and reads back identically.
std::optional<RecordSet> read_records_csv(std::istream& is,
                                          std::size_t* bad_row = nullptr);

/// Writes vantage points as CSV:
/// id,as_index,address,lat,lon,region,firmware,hijacked,phase_ms.
/// Coordinates are written in the shortest form that reads back exactly.
void write_vps_csv(const std::vector<VantagePoint>& vps, std::ostream& os);

/// Parses vantage points written by write_vps_csv; rejects non-finite
/// coordinates and a hijacked flag other than 0/1.
std::optional<std::vector<VantagePoint>> read_vps_csv(
    std::istream& is, std::size_t* bad_row = nullptr);

}  // namespace rootstress::atlas
