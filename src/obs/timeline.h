// Per-run flight recorder: bounded, preallocated per-bin time series plus
// labeled spans, captured during the serial phases of each engine step.
//
// The paper reconstructs the Nov 30 / Dec 1 events entirely from
// time-binned observables (Atlas reachability per letter, RSSAC load,
// BGP announce/withdraw state). The timeline is the simulator-side
// equivalent: while the run executes, the engine records the same
// per-bin series about itself — answered fraction, offered vs. served
// load, queue delay, announce state, playbook signal levels — so a
// pulse-wave duel or a detect→actuate→recover arc can be inspected after
// the fact without rerunning under ad-hoc prints.
//
// Design rules:
//  - Recording happens only in serial engine phases and reads only
//    already-published per-step state. Nothing in the simulation reads
//    the timeline back, so recording is digest-neutral: RunSummary is
//    bit-identical with the recorder on or off, at any thread count.
//  - Every series is preallocated to the run's bin count at
//    registration; record() is a bounds-check plus two array writes,
//    cheap enough to run per site per step. `bench_ab obs` times the
//    whole telemetry stack against a dark run.
//  - The recorder lives behind the nullable obs::Runtime* like every
//    other telemetry surface; its plain-data snapshot (TimelineData)
//    rides on obs::Snapshot and is exported by core::write_telemetry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "net/clock.h"
#include "obs/json.h"

namespace rootstress::obs {

/// How samples landing in the same bin combine.
enum class SeriesAgg : std::uint8_t {
  kMean,  ///< value(bin) = sum / count (qps, fractions, delays)
  kSum,   ///< value(bin) = sum (event counts: rule firings, flips)
  kLast,  ///< value(bin) = last sample (state levels: announce state)
};

/// Stable wire name ("mean" / "sum" / "last").
const char* to_string(SeriesAgg agg) noexcept;

/// One recorded series: fixed per-bin accumulators plus identity.
struct TimelineSeries {
  std::string name;   ///< "letter.answered_fraction", "site.offered_qps", ...
  char letter = 0;    ///< 'A'..'N', 0 = not letter-scoped
  std::string scope;  ///< site label / rule name, empty = letter- or run-level
  SeriesAgg agg = SeriesAgg::kMean;
  std::vector<double> sums;            ///< per bin (or last value for kLast)
  std::vector<std::uint32_t> counts;   ///< samples per bin

  /// Aggregated value of one bin; NaN when the bin holds no samples.
  double value(std::size_t bin) const noexcept;
};

/// One labeled interval: fault-injector windows, attack pulses, playbook
/// hold windows — the label source for dataset export.
struct TimelineSpan {
  std::string category;  ///< "fault" / "attack" / "playbook"
  std::string name;      ///< "pulse-wave", "site-fault", "hold", ...
  std::string scope;     ///< letter / site label the span applies to
  net::SimTime begin{};
  net::SimTime end{};    ///< exclusive, clamped to the run span
};

/// Plain-data copy of one run's timeline, carried on obs::Snapshot.
struct TimelineData {
  std::int64_t start_ms = 0;  ///< first bin's left edge
  std::int64_t bin_ms = 0;    ///< bin width (0 = no recorder attached)
  std::size_t bins = 0;
  std::vector<TimelineSeries> series;
  std::vector<TimelineSpan> spans;

  bool empty() const noexcept { return series.empty() && spans.empty(); }

  /// First series matching name (and scope, when non-empty); nullptr if
  /// absent.
  const TimelineSeries* find(std::string_view name,
                             std::string_view scope = {}) const noexcept;

  /// Order-sensitive FNV-1a over geometry, identities, accumulator bit
  /// patterns, and spans. Bit-identical recording => identical digest, so
  /// the determinism gates can compare runs across thread counts with one
  /// integer.
  std::uint64_t digest() const noexcept;

  /// Full timeline as JSON: geometry + digest + per-series bin values
  /// (null where a bin holds no samples) + spans.
  JsonValue to_json() const;
};

/// The live recorder. Not thread-safe: record() is called from serial
/// engine phases only.
class Timeline {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Bins cover [start, end) at `bin_width`; a ragged tail gets its own
  /// bin. Throws std::invalid_argument on a non-positive width or span.
  Timeline(net::SimTime start, net::SimTime end, net::SimTime bin_width);

  std::size_t bin_count() const noexcept { return data_.bins; }

  /// Bin containing `t`; npos outside the run span.
  std::size_t bin_of(net::SimTime t) const noexcept {
    const std::int64_t offset = t.ms - data_.start_ms;
    if (offset < 0) return npos;
    const auto bin = static_cast<std::size_t>(offset / data_.bin_ms);
    return bin < data_.bins ? bin : npos;
  }

  /// Registers (and preallocates) one series; returns its handle. Callers
  /// register everything up front and keep the handles — registration
  /// during recording would reallocate.
  std::size_t add_series(std::string name, char letter, std::string scope,
                         SeriesAgg agg);

  /// Records one sample into the bin containing `t` (out-of-span samples
  /// are ignored). `series` must be a handle from add_series.
  void record(std::size_t series, net::SimTime t, double value) noexcept {
    const std::size_t bin = bin_of(t);
    if (bin == npos) return;
    TimelineSeries& s = data_.series[series];
    if (s.agg == SeriesAgg::kLast) {
      s.sums[bin] = value;
    } else {
      s.sums[bin] += value;
    }
    ++s.counts[bin];
  }

  /// Appends a span (clamped to the run span); returns its handle so
  /// callers can close_span() windows that are still open.
  std::size_t add_span(TimelineSpan span);

  /// Rewrites the end of a previously added span (e.g. a playbook hold
  /// window closing on restore).
  void close_span(std::size_t span, net::SimTime end);

  /// The recorder's current state (valid until the next mutation).
  const TimelineData& data() const noexcept { return data_; }

  /// Plain-data copy for obs::Snapshot.
  TimelineData snapshot() const { return data_; }

 private:
  net::SimTime clamp(net::SimTime t) const noexcept;

  TimelineData data_;
  std::int64_t end_ms_ = 0;
};

}  // namespace rootstress::obs
