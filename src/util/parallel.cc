#include "util/parallel.h"

#include <algorithm>

#include "util/env.h"

namespace rootstress::util {

int resolve_thread_count(int requested) noexcept {
  if (requested >= 1) return requested;
  if (const auto env = env_integer("ROOTSTRESS_THREADS", 1, kMaxThreads)) {
    return static_cast<int>(*env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(hw, 1, kMaxThreads));
}

int lanes_per_worker(int lane_budget, int outer_workers) noexcept {
  if (lane_budget < 1) lane_budget = 1;
  if (outer_workers < 1) outer_workers = 1;
  const int lanes = lane_budget / outer_workers;
  return lanes < 1 ? 1 : lanes;
}

ThreadPool::ThreadPool(int threads)
    : thread_count_(threads < 1 ? 1 : threads) {
  workers_.reserve(static_cast<std::size_t>(thread_count_ - 1));
  for (int i = 1; i < thread_count_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run_indices() {
  const auto& fn = *fn_;
  std::uint64_t executed = 0;
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) break;
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    ++executed;
  }
  if (executed > 0) {
    tasks_executed_.fetch_add(executed, std::memory_order_relaxed);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
    }
    run_indices();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--busy_workers_ == 0) done_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  ++dispatches_;
  if (workers_.empty() || n == 1) {
    // Serial path: no synchronization at all (threads=1 contract), and
    // exceptions propagate directly.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    tasks_executed_.fetch_add(n, std::memory_order_relaxed);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    busy_workers_ = static_cast<int>(workers_.size());
    ++epoch_;
  }
  wake_.notify_all();
  run_indices();  // the calling thread is a lane too
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return busy_workers_ == 0; });
    fn_ = nullptr;
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace rootstress::util
