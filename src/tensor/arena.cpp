#include "tensor/arena.hpp"

#include <atomic>
#include <new>
#include <unordered_map>
#include <vector>

namespace avgpipe::tensor::arena {

namespace {

constexpr std::size_t kAlignment = 64;  // cache line; also max SIMD width
constexpr std::size_t kGranularity = 8; // round capacities to 8 scalars
// Per-thread cache cap; a release that would cross it frees eagerly.
constexpr std::size_t kMaxCachedBytes = std::size_t{256} << 20;

std::atomic<std::uint64_t> g_acquires{0};
std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_releases{0};
std::atomic<std::uint64_t> g_heap_frees{0};
std::atomic<bool> g_enabled{true};

Scalar* heap_acquire(std::size_t capacity) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return static_cast<Scalar*>(::operator new(
      capacity * sizeof(Scalar), std::align_val_t{kAlignment}));
}

void heap_free(Scalar* p) noexcept {
  g_heap_frees.fetch_add(1, std::memory_order_relaxed);
  ::operator delete(p, std::align_val_t{kAlignment});
}

/// Per-thread free lists keyed by rounded capacity. Accessed through a raw
/// pointer that the owner nulls on destruction, so acquire/release during
/// thread teardown (or static destruction of long-lived tensors) degrade to
/// the plain heap instead of touching a dead cache.
struct Cache {
  std::unordered_map<std::size_t, std::vector<Scalar*>> free_lists;
  std::size_t cached_bytes = 0;

  ~Cache() {
    for (auto& [capacity, list] : free_lists) {
      (void)capacity;
      for (Scalar* p : list) heap_free(p);
    }
  }
};

thread_local Cache* tl_cache = nullptr;

struct CacheOwner {
  Cache cache;
  CacheOwner() { tl_cache = &cache; }
  ~CacheOwner() { tl_cache = nullptr; }
};

Cache* cache() {
  thread_local CacheOwner owner;
  return tl_cache;
}

}  // namespace

std::size_t bucket_capacity(std::size_t n) {
  return (n + kGranularity - 1) / kGranularity * kGranularity;
}

Scalar* acquire(std::size_t n) {
  if (n == 0) return nullptr;
  g_acquires.fetch_add(1, std::memory_order_relaxed);
  const std::size_t capacity = bucket_capacity(n);
  if (g_enabled.load(std::memory_order_relaxed)) {
    if (Cache* c = cache()) {
      auto it = c->free_lists.find(capacity);
      if (it != c->free_lists.end() && !it->second.empty()) {
        Scalar* p = it->second.back();
        it->second.pop_back();
        c->cached_bytes -= capacity * sizeof(Scalar);
        g_hits.fetch_add(1, std::memory_order_relaxed);
        return p;
      }
    }
  }
  return heap_acquire(capacity);
}

void release(Scalar* p, std::size_t n) noexcept {
  if (p == nullptr) return;
  g_releases.fetch_add(1, std::memory_order_relaxed);
  const std::size_t capacity = bucket_capacity(n);
  if (g_enabled.load(std::memory_order_relaxed)) {
    Cache* c = tl_cache;  // never (re)construct during teardown
    if (c != nullptr &&
        c->cached_bytes + capacity * sizeof(Scalar) <= kMaxCachedBytes) {
      c->free_lists[capacity].push_back(p);
      c->cached_bytes += capacity * sizeof(Scalar);
      return;
    }
  }
  heap_free(p);
}

Stats stats() {
  Stats s;
  s.acquires = g_acquires.load(std::memory_order_relaxed);
  s.hits = g_hits.load(std::memory_order_relaxed);
  s.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
  s.releases = g_releases.load(std::memory_order_relaxed);
  s.heap_frees = g_heap_frees.load(std::memory_order_relaxed);
  return s;
}

void reset_stats() {
  g_acquires.store(0, std::memory_order_relaxed);
  g_hits.store(0, std::memory_order_relaxed);
  g_heap_allocs.store(0, std::memory_order_relaxed);
  g_releases.store(0, std::memory_order_relaxed);
  g_heap_frees.store(0, std::memory_order_relaxed);
}

void clear_thread_cache() {
  if (Cache* c = cache()) {
    for (auto& [capacity, list] : c->free_lists) {
      (void)capacity;
      for (Scalar* p : list) heap_free(p);
      list.clear();
    }
    c->cached_bytes = 0;
  }
}

void set_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

}  // namespace avgpipe::tensor::arena
