#pragma once

/// \file arena.hpp
/// Size-bucketed buffer recycling for tensor storage.
///
/// Training loops allocate the same handful of tensor shapes every step
/// (activations, gradients, packed GEMM panels). Routing those buffers
/// through `operator new` per op dominates small-model step time and
/// fragments the heap. The arena keeps released buffers in per-thread
/// free lists keyed by rounded capacity. A step that acquires and releases
/// on one thread is served entirely from the cache after warm-up (the
/// `heap_allocs_per_step: 0` row of BENCH_kernels.json). A buffer released
/// on another thread lands in that thread's cache, so its acquirer
/// heap-allocates a replacement every step: in the pipeline runtime, the
/// micro-batch input slices the driver cuts in `data::slice_micro_batches`
/// (released by stage 0) and the boundary gradients a stage sends upstream
/// (released by the stage before it). The heap-allocation counter therefore
/// flat-lines at that small per-step constant, not at zero, and the
/// releasing thread's cache grows until it reaches the cap.
///
/// Design rules:
///  - Buffers are raw 64-byte-aligned `Scalar` arrays, *uninitialized* on
///    acquire. Callers that need zeros must fill explicitly (`Tensor(Shape)`
///    still zero-fills; `Tensor::uninitialized` does not).
///  - Free lists are `thread_local`; a buffer released on a different thread
///    than it was acquired on migrates caches (see above). No locks anywhere.
///  - After a thread's cache is destroyed (thread exit / static teardown),
///    acquire/release fall back to the plain heap, so tensors with static
///    storage duration stay safe.
///  - The per-thread cache is capped at a fixed 256 MB; releases beyond the
///    cap free eagerly.

#include <cstddef>
#include <cstdint>

namespace avgpipe::tensor {
using Scalar = double;
}

namespace avgpipe::tensor::arena {

/// Monotonic counters. `acquires` = all acquire() calls; `hits` = served from
/// a free list; `heap_allocs` = fell through to the heap. Process-wide
/// (relaxed atomics) so benches can measure allocs/op across worker threads.
struct Stats {
  std::uint64_t acquires = 0;
  std::uint64_t hits = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t releases = 0;
  std::uint64_t heap_frees = 0;
};

/// Acquire an uninitialized buffer holding at least `n` scalars.
/// n == 0 returns nullptr.
Scalar* acquire(std::size_t n);

/// Return a buffer previously obtained from acquire(n). `n` must be the
/// same count passed to acquire.
void release(Scalar* p, std::size_t n) noexcept;

/// Rounded capacity (in scalars) a request of `n` scalars maps to; exposed
/// so tests can assert bucketing behaviour.
std::size_t bucket_capacity(std::size_t n);

/// Process-wide counters since start (or last reset_stats()).
Stats stats();
void reset_stats();

/// Drop every cached buffer owned by the calling thread.
void clear_thread_cache();

/// Globally enable/disable recycling (acquire/release still work, they just
/// bypass the free lists). Used by tests; enabled by default.
void set_enabled(bool enabled);
bool enabled();

}  // namespace avgpipe::tensor::arena
