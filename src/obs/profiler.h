// Phase profiling: RAII scoped timers around the engine's stages.
//
// Answers "where did the wall-clock go" for one run: topology build, BGP
// convergence, fluid stepping, Atlas probing, cleaning, RSSAC accounting.
// Phases aggregate by name across invocations (the 2880 per-step fluid
// scopes of a 48 h run collapse into one row), nest (self time excludes
// child phases), and track heap allocation via the process-wide
// new/delete hook in profiler.cc.
//
// The profiler is per-run, driven from the engine thread, and not
// thread-safe — wall time is observational only and never feeds back
// into the simulation.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rootstress::obs {

/// Process-wide allocation counters (bytes / calls through operator new).
/// Zero when the replacement hook was not linked in.
std::uint64_t allocated_bytes() noexcept;
std::uint64_t allocation_count() noexcept;

/// One aggregated phase.
struct PhaseStats {
  std::string name;
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  ///< wall time including child phases
  std::int64_t self_ns = 0;   ///< wall time excluding child phases
  std::uint64_t alloc_bytes = 0;  ///< heap allocated inside (incl. children)
  std::uint64_t allocs = 0;
  int depth = 0;  ///< nesting depth at first entry (for display indent)
};

/// One individual timed scope, kept (up to a cap) alongside the
/// aggregates so a run can be rendered as a flamegraph: `phase` indexes
/// the stats() order, timestamps are microseconds since the profiler's
/// epoch (shared with the TraceSink so trace instants align).
struct PhaseSlice {
  std::uint32_t phase = 0;
  std::uint16_t depth = 0;
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
};

class PhaseProfiler {
 public:
  PhaseProfiler() = default;
  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// RAII frame; `profiler` may be null (the scope is then a no-op),
  /// which lets instrumented code run without a telemetry runtime.
  class Scope {
   public:
    Scope(PhaseProfiler* profiler, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseProfiler* profiler_;
  };

  /// Aggregated stats in first-entry order.
  std::vector<PhaseStats> stats() const;

  /// Individual slices in completion order, capped at kSliceCapacity
  /// (scopes past the cap still aggregate, only the slice is dropped).
  static constexpr std::size_t kSliceCapacity = 1u << 18;
  const std::vector<PhaseSlice>& slices() const noexcept { return slices_; }
  std::uint64_t slices_dropped() const noexcept { return slices_dropped_; }

  /// Re-bases slice timestamps onto `epoch` (call before the first
  /// scope). The Runtime points this at its TraceSink's epoch so slice
  /// and trace-event timestamps share one axis.
  void set_epoch(std::chrono::steady_clock::time_point epoch) noexcept {
    epoch_ = epoch;
  }

 private:
  friend class Scope;
  void enter(std::string_view name);
  void exit();

  struct Frame {
    std::size_t phase;  ///< index into phases_
    std::chrono::steady_clock::time_point start;
    std::uint64_t bytes_at_entry;
    std::uint64_t allocs_at_entry;
    std::int64_t child_ns = 0;
  };

  std::vector<PhaseStats> phases_;
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<Frame> stack_;
  std::vector<PhaseSlice> slices_;
  std::uint64_t slices_dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

}  // namespace rootstress::obs
