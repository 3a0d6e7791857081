// Deterministic fixed-worker parallelism for the simulation hot loops.
//
// The engine's per-step work (fluid load splitting per service, Atlas
// probing per VP shard) is embarrassingly parallel *within* a step, but
// the step sequence itself is stateful and must stay sequential. This
// pool is built for that shape: one dispatch per phase per step
// (thousands per run), each fanning a small fixed index range across a
// fixed set of workers.
//
// Design rules, in priority order:
//
//  1. Determinism. parallel_for(n, fn) promises only that fn(i) runs
//     exactly once for every i in [0, n) — callers must write results
//     into per-index slots and merge them in index order afterwards.
//     Which thread runs which index is scheduling noise; no simulation
//     state may depend on it. Combined with the engine's counter-based
//     probe RNG, this makes results bit-identical for any thread count.
//  2. threads == 1 is the exact legacy path: no workers are spawned and
//     parallel_for degenerates to a plain inline loop (no atomics, no
//     synchronization), so single-threaded runs cost what they did
//     before the pool existed.
//  3. No work stealing, no task graph: indices are handed out with one
//     fetch_add. Dispatch overhead is two condition-variable signals,
//     which is noise against a simulation step.
//
// Exceptions thrown by fn are captured (first one wins) and rethrown on
// the calling thread after the dispatch completes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rootstress::util {

/// Bound on the auto lane count: a ROOTSTRESS_THREADS value above it is
/// ignored, and sim::validate rejects a ScenarioConfig::threads above it.
inline constexpr int kMaxThreads = 256;

/// Resolves a requested thread count: values >= 1 pass through; 0 (auto)
/// reads ROOTSTRESS_THREADS when it is an integer in [1, kMaxThreads],
/// else takes hardware_concurrency, clamped to [1, kMaxThreads].
int resolve_thread_count(int requested) noexcept;

/// Splits a total lane budget across `outer` concurrent workers: the
/// lanes each worker may use for its own inner parallelism so that
/// outer * inner never oversubscribes the budget. Always >= 1 (outer
/// concurrency beyond the budget degrades gracefully instead of
/// spawning budget * outer threads). The sweep campaign runner composes
/// its outer cell workers with ScenarioConfig::threads through this.
int lanes_per_worker(int lane_budget, int outer_workers) noexcept;

/// Fixed-worker fork/join pool. See file comment for the contract.
class ThreadPool {
 public:
  /// `threads` is the total concurrency including the calling thread:
  /// the pool spawns `threads - 1` workers (none for threads <= 1).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the calling thread); >= 1.
  int thread_count() const noexcept { return thread_count_; }

  /// Runs fn(i) exactly once for every i in [0, n), distributing indices
  /// across the workers and the calling thread; returns when all are
  /// done. Not reentrant (fn must not call parallel_for on this pool).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Lifetime counters (telemetry): indices executed / dispatches made.
  std::uint64_t tasks_executed() const noexcept {
    return tasks_executed_.load(std::memory_order_relaxed);
  }
  std::uint64_t dispatches() const noexcept { return dispatches_; }

 private:
  void worker_loop();
  void run_indices();

  int thread_count_ = 1;
  std::vector<std::thread> workers_;

  // Current dispatch, guarded by mutex_ for the epoch handshake; the
  // index counter itself is lock-free.
  std::mutex mutex_;
  std::condition_variable wake_;   ///< workers wait here for a new epoch
  std::condition_variable done_;   ///< caller waits here for completion
  std::uint64_t epoch_ = 0;        ///< bumped per dispatch
  bool shutdown_ = false;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};
  int busy_workers_ = 0;
  std::exception_ptr first_error_;

  std::atomic<std::uint64_t> tasks_executed_{0};
  std::uint64_t dispatches_ = 0;
};

}  // namespace rootstress::util
