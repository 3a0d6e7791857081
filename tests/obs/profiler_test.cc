#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace rootstress::obs {
namespace {

const PhaseStats* find_phase(const std::vector<PhaseStats>& stats,
                             const std::string& name) {
  for (const auto& phase : stats) {
    if (phase.name == name) return &phase;
  }
  return nullptr;
}

TEST(Profiler, NullProfilerScopeIsNoOp) {
  PhaseProfiler::Scope scope(nullptr, "nothing");
  // Nothing to assert beyond "does not crash".
}

TEST(Profiler, AggregatesRepeatedScopesByName) {
  PhaseProfiler profiler;
  for (int i = 0; i < 5; ++i) {
    PhaseProfiler::Scope scope(&profiler, "fluid-stepping");
  }
  const auto stats = profiler.stats();
  const PhaseStats* fluid = find_phase(stats, "fluid-stepping");
  ASSERT_NE(fluid, nullptr);
  EXPECT_EQ(fluid->calls, 5u);
  EXPECT_GE(fluid->total_ns, 0);
  EXPECT_EQ(stats.size(), 1u);
}

TEST(Profiler, NestedScopesSplitSelfTime) {
  PhaseProfiler profiler;
  {
    PhaseProfiler::Scope outer(&profiler, "outer");
    {
      PhaseProfiler::Scope inner(&profiler, "inner");
      // Burn a little time so inner > 0.
      volatile double sink = 0.0;
      for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
    }
  }
  const auto stats = profiler.stats();
  const PhaseStats* outer = find_phase(stats, "outer");
  const PhaseStats* inner = find_phase(stats, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  // Outer total covers inner; outer self excludes it.
  EXPECT_GE(outer->total_ns, inner->total_ns);
  EXPECT_LE(outer->self_ns, outer->total_ns - inner->total_ns + 1);
  EXPECT_EQ(inner->self_ns, inner->total_ns);
}

TEST(Profiler, TracksAllocationsInsideScopes) {
#ifdef ROOTSTRESS_NO_ALLOC_HOOK
  GTEST_SKIP() << "allocation hook disabled at compile time";
#else
  if (allocation_count() == 0) {
    GTEST_SKIP() << "allocation hook not active in this binary";
  }
  PhaseProfiler profiler;
  {
    PhaseProfiler::Scope scope(&profiler, "allocating");
    auto block = std::make_unique<char[]>(1 << 16);
    block[0] = 1;
  }
  const auto stats = profiler.stats();
  const PhaseStats* phase = find_phase(stats, "allocating");
  ASSERT_NE(phase, nullptr);
  EXPECT_GE(phase->allocs, 1u);
  EXPECT_GE(phase->alloc_bytes, static_cast<std::uint64_t>(1 << 16));
#endif
}

TEST(Profiler, FirstEntryOrderIsStable) {
  PhaseProfiler profiler;
  { PhaseProfiler::Scope a(&profiler, "first"); }
  { PhaseProfiler::Scope b(&profiler, "second"); }
  { PhaseProfiler::Scope c(&profiler, "first"); }
  const auto stats = profiler.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "first");
  EXPECT_EQ(stats[0].calls, 2u);
  EXPECT_EQ(stats[1].name, "second");
}

}  // namespace
}  // namespace rootstress::obs
