#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace rootstress::util {
namespace {

TEST(ResolveThreadCount, ExplicitRequestPassesThrough) {
  EXPECT_EQ(resolve_thread_count(1), 1);
  EXPECT_EQ(resolve_thread_count(4), 4);
  EXPECT_EQ(resolve_thread_count(37), 37);
}

TEST(ResolveThreadCount, AutoRespectsEnvOverride) {
  ::unsetenv("ROOTSTRESS_THREADS");
  const int unset = resolve_thread_count(0);
  EXPECT_GE(unset, 1);
  EXPECT_LE(unset, kMaxThreads);
  ::setenv("ROOTSTRESS_THREADS", "3", 1);
  EXPECT_EQ(resolve_thread_count(0), 3);
  EXPECT_EQ(resolve_thread_count(-1), 3);
  // Anything but a whole integer in [1, kMaxThreads] falls through to
  // hardware detection. Only the count is checked; no pool is built.
  for (const char* value :
       {"bogus", "", "3x", "-3", "0", "99999999999", "100000"}) {
    ::setenv("ROOTSTRESS_THREADS", value, 1);
    EXPECT_EQ(resolve_thread_count(0), unset) << '"' << value << '"';
  }
  ::unsetenv("ROOTSTRESS_THREADS");
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    constexpr std::size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(pool.tasks_executed(), 0u);
}

TEST(ThreadPool, ReusableAcrossManyDispatches) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  constexpr int kRounds = 50;
  constexpr std::size_t kN = 64;
  for (int round = 0; round < kRounds; ++round) {
    pool.parallel_for(kN, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), kRounds * (kN * (kN - 1)) / 2);
  EXPECT_EQ(pool.tasks_executed(), kRounds * kN);
  EXPECT_EQ(pool.dispatches(), kRounds);
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);  // serial path: strict ascending order
}

TEST(ThreadPool, PropagatesFirstExceptionAndSurvives) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(100,
                          [](std::size_t i) {
                            if (i == 42) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // The pool must stay usable after a throwing dispatch.
    std::atomic<int> count{0};
    pool.parallel_for(10, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 10) << "threads=" << threads;
  }
}

TEST(ThreadPool, ManyConcurrentThrowersYieldExactlyOneException) {
  // Every task throws, from every worker at once: exactly one exception
  // must surface per dispatch (first recorded wins, the rest are
  // swallowed), the pool must not terminate or deadlock, and it must stay
  // usable afterwards. Repeat to shake out capture races.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> thrown{0};
    try {
      pool.parallel_for(64, [&](std::size_t i) {
        thrown.fetch_add(1, std::memory_order_relaxed);
        throw std::runtime_error("worker " + std::to_string(i));
      });
      FAIL() << "parallel_for swallowed every exception (round " << round
             << ")";
    } catch (const std::runtime_error& error) {
      // One of the workers' messages, intact — not a mangled mixture.
      EXPECT_EQ(std::string(error.what()).rfind("worker ", 0), 0u);
    }
    EXPECT_GT(thrown.load(), 0) << "round " << round;
  }
  std::atomic<int> count{0};
  pool.parallel_for(
      10, [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(count.load(), 10);
}

TEST(LanesPerWorker, SplitsTheBudgetAndClampsToOne) {
  EXPECT_EQ(lanes_per_worker(16, 4), 4);
  EXPECT_EQ(lanes_per_worker(8, 3), 2);   // floor
  EXPECT_EQ(lanes_per_worker(4, 8), 1);   // more workers than lanes
  EXPECT_EQ(lanes_per_worker(1, 1), 1);
  EXPECT_EQ(lanes_per_worker(0, 0), 1);   // degenerate inputs clamp
  EXPECT_EQ(lanes_per_worker(-5, -2), 1);
}

}  // namespace
}  // namespace rootstress::util
