#include "obs/profiler.h"

#include <atomic>
#include <cstdlib>
#include <new>

// ---------------------------------------------------------------------------
// Allocation accounting: replace the global operator new/delete family so
// phases can report how much heap they churned. The counters are relaxed
// atomics — one add per allocation — and the hook can be compiled out
// with -DROOTSTRESS_NO_ALLOC_HOOK if a sanitizer or allocator needs the
// default operators.
// ---------------------------------------------------------------------------

namespace rootstress::obs {
namespace {
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_alloc_calls{0};

inline void note_alloc(std::size_t n) noexcept {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

std::uint64_t allocated_bytes() noexcept {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}
std::uint64_t allocation_count() noexcept {
  return g_alloc_calls.load(std::memory_order_relaxed);
}
}  // namespace rootstress::obs

#ifndef ROOTSTRESS_NO_ALLOC_HOOK

namespace {

void* counted_alloc(std::size_t size) {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p != nullptr) rootstress::obs::note_alloc(size);
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  rootstress::obs::note_alloc(size);
  return p;
}

// Every replacement delete frees through here. Out of line, so GCC cannot
// pair an inlined standard operator new in a caller with a bare free and
// warn about a mismatched allocation (-Wmismatched-new-delete at -O2).
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

#endif  // ROOTSTRESS_NO_ALLOC_HOOK

// ---------------------------------------------------------------------------
// PhaseProfiler
// ---------------------------------------------------------------------------

namespace rootstress::obs {

PhaseProfiler::Scope::Scope(PhaseProfiler* profiler, std::string_view name)
    : profiler_(profiler) {
  if (profiler_ != nullptr) profiler_->enter(name);
}

PhaseProfiler::Scope::~Scope() {
  if (profiler_ != nullptr) profiler_->exit();
}

void PhaseProfiler::enter(std::string_view name) {
  std::size_t phase;
  if (const auto it = index_.find(std::string(name)); it != index_.end()) {
    phase = it->second;
  } else {
    phase = phases_.size();
    PhaseStats stats;
    stats.name = std::string(name);
    stats.depth = static_cast<int>(stack_.size());
    phases_.push_back(std::move(stats));
    index_.emplace(phases_.back().name, phase);
  }
  Frame frame;
  frame.phase = phase;
  frame.start = std::chrono::steady_clock::now();
  frame.bytes_at_entry = allocated_bytes();
  frame.allocs_at_entry = allocation_count();
  stack_.push_back(frame);
}

void PhaseProfiler::exit() {
  if (stack_.empty()) return;
  const Frame frame = stack_.back();
  stack_.pop_back();
  const auto now = std::chrono::steady_clock::now();
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - frame.start)
          .count();
  PhaseStats& stats = phases_[frame.phase];
  ++stats.calls;
  stats.total_ns += elapsed;
  stats.self_ns += elapsed - frame.child_ns;
  stats.alloc_bytes += allocated_bytes() - frame.bytes_at_entry;
  stats.allocs += allocation_count() - frame.allocs_at_entry;
  if (!stack_.empty()) stack_.back().child_ns += elapsed;

  if (slices_.size() < kSliceCapacity) {
    PhaseSlice slice;
    slice.phase = static_cast<std::uint32_t>(frame.phase);
    slice.depth = static_cast<std::uint16_t>(stack_.size());
    slice.start_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         frame.start - epoch_)
                         .count();
    slice.dur_us = elapsed / 1000;
    slices_.push_back(slice);
  } else {
    ++slices_dropped_;
  }
}

std::vector<PhaseStats> PhaseProfiler::stats() const { return phases_; }

}  // namespace rootstress::obs
