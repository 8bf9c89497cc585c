#pragma once

/// \file queue.hpp
/// Bounded, closable channels: an MPMC `Channel` and an SPSC specialization.
///
/// These are the message-passing primitives AvgPipe's runtime is built on
/// (paper §3.2): stage workers exchange activations/gradients over
/// point-to-point `SpscChannel` links, and the MPMC `Channel` carries the
/// coordination traffic — per-stage start tokens, the done barrier and the
/// thread pool's task queue. The design mirrors MPI-style cooperative
/// send/recv: a bounded buffer provides back-pressure, and `close()` gives a
/// clean end-of-stream so pipelines can drain and join deterministically.
/// Each channel keeps only the operations the runtime calls: `Channel` has
/// `send`/`recv`/`close`; `SpscChannel` adds the timed `recv_for` of the
/// fault-tolerant receive path and the `size`/`capacity` and spin/park
/// readings its assertions and counters sample.
///
/// Latency model: a condvar wakeup costs ~5–20µs — comparable to an entire
/// micro-batch forward on the small stages the runtime drives, so parking on
/// every recv would serialise the pipeline on scheduler latency. Both
/// channels therefore spin briefly before parking (`detail::SpinPolicy`, a
/// bounded budget that adapts to whether spinning has been paying off), and
/// the stage-to-stage links use `SpscChannel`, whose fast path is two atomic
/// loads and one store — no mutex, no syscall.
///
/// Concurrency contracts are compiler-checked (DESIGN.md §17): `Channel`'s
/// buffer is GUARDED_BY its mutex, and `SpscChannel`'s single-producer /
/// single-consumer split is expressed as two phantom `common::Role`
/// capabilities, so calling a send-side op from the consumer thread (or vice
/// versa) is a compile error under clang -Wthread-safety.

#include <atomic>
#include <chrono>
#include <deque>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/check.hpp"
#include "common/units.hpp"

namespace avgpipe {

/// Outcome of the one timed channel operation, `SpscChannel::recv_for`.
enum class ChannelStatus {
  kOk,       ///< item received
  kTimeout,  ///< deadline elapsed; channel still open
  kClosed,   ///< channel closed and drained
};

namespace detail {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Whether busy-waiting can ever pay off: on a uniprocessor the peer cannot
/// run while we pause-spin, so every iteration only delays it (the same SMP
/// gate adaptive mutexes use). Uniprocessors instead yield — donating the
/// quantum lets the peer publish, and because the waiter never registers on
/// the condvar the peer's notify syscall is skipped too.
inline bool spin_profitable() {
  static const bool multi = std::thread::hardware_concurrency() > 1;
  return multi;
}

/// Bounded adaptive spin: the budget doubles (up to a cap) when the awaited
/// condition turns true inside the spin window and halves when the waiter
/// ends up parking anyway, so a channel whose peer responds in
/// sub-microsecond time converges to spinning and a genuinely idle channel
/// converges to parking almost immediately.
class SpinPolicy {
 public:
  /// Spin until `pred()` holds or the budget runs out; returns the final
  /// `pred()` value and adapts the budget for the next wait.
  template <typename Pred>
  bool spin(Pred&& pred) {
    const bool smp = spin_profitable();
    std::uint32_t budget = budget_.load(std::memory_order_relaxed);
    // A yield donates a whole scheduler quantum, so a handful suffices where
    // thousands of pause iterations would on SMP.
    if (!smp) budget = std::min(budget, kMaxYield);
    for (std::uint32_t i = 0; i < budget; ++i) {
      if (pred()) {
        budget_.store(std::min(kMaxSpin, budget * 2 + 16),
                      std::memory_order_relaxed);
        return true;
      }
      if (smp) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
    budget_.store(budget / 2, std::memory_order_relaxed);
    return pred();
  }

 private:
  static constexpr std::uint32_t kMaxSpin = 4096;
  static constexpr std::uint32_t kMaxYield = 32;
  std::atomic<std::uint32_t> budget_{256};
};

}  // namespace detail

/// Bounded MPMC channel. All methods are thread-safe.
///
/// Semantics:
///  * `send` blocks while full; returns false if the channel is closed.
///  * `recv` blocks while empty; returns nullopt once closed *and* drained.
///  * `close` wakes *all* blocked producers and consumers; a `send` issued
///    after close returns false immediately instead of blocking, and pending
///    items remain receivable (clean end-of-stream).
///
/// Blocking ops spin briefly on lock-free occupancy hints before taking the
/// mutex + condvar slow path, so a peer that responds quickly is observed
/// without a scheduler round-trip.
template <typename T>
class Channel {
 public:
  /// \param capacity maximum buffered items; must be >= 1.
  explicit Channel(std::size_t capacity) : capacity_(capacity) {
    AVGPIPE_CHECK(capacity >= 1, "channel capacity must be positive");
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Blocking send. Returns false (and drops `value`) if closed.
  bool send(T value) {
    spin_not_full_.spin([&] {
      return closed_hint_.load(std::memory_order_acquire) ||
             size_hint_.load(std::memory_order_acquire) < capacity_;
    });
    common::MutexLock lock(mutex_);
    while (!closed_ && items_.size() >= capacity_) {
      not_full_.wait(mutex_, lock);
    }
    if (closed_) return false;
    items_.push_back(std::move(value));
    size_hint_.store(items_.size(), std::memory_order_release);
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocking receive. Returns nullopt when the channel is closed and empty.
  std::optional<T> recv() {
    spin_not_empty_.spin([&] {
      return closed_hint_.load(std::memory_order_acquire) ||
             size_hint_.load(std::memory_order_acquire) > 0;
    });
    common::MutexLock lock(mutex_);
    while (!closed_ && items_.empty()) {
      not_empty_.wait(mutex_, lock);
    }
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    size_hint_.store(items_.size(), std::memory_order_release);
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Close the channel; wakes all blocked senders/receivers. Idempotent.
  ///
  /// The notifies happen *while holding the mutex*: if they were issued
  /// after releasing it, a waiter woken spuriously could observe `closed_`,
  /// return, and let the owner destroy the channel before close() touched
  /// the condition variables — a use-after-free on shutdown of a full
  /// queue with a blocked producer. Holding the lock closes that window:
  /// no waiter can complete its predicate check until close() has finished.
  void close() {
    common::MutexLock lock(mutex_);
    if (closed_) return;
    closed_ = true;
    closed_hint_.store(true, std::memory_order_release);
    not_full_.notify_all();
    not_empty_.notify_all();
  }

 private:
  const std::size_t capacity_;
  common::Mutex mutex_;
  common::CondVar not_full_;
  common::CondVar not_empty_;
  std::deque<T> items_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
  // Lock-free occupancy hints driving the pre-park spin. Written only under
  // the mutex; the slow path re-checks the authoritative state, so a stale
  // hint costs at most one wasted spin window, never correctness.
  std::atomic<std::size_t> size_hint_{0};
  std::atomic<bool> closed_hint_{false};
  detail::SpinPolicy spin_not_full_;
  detail::SpinPolicy spin_not_empty_;
};

/// Bounded single-producer/single-consumer channel.
///
/// The stage-to-stage links of the pipeline runtime are strictly SPSC (one
/// upstream producer, one downstream consumer), so the MPMC mutex is pure
/// overhead there. This ring buffer transfers an item with two atomic loads
/// and one store on the fast path; waiters spin briefly (SpinPolicy) and
/// then park on a shared condvar. The parking handshake is the classic
/// Dekker store-buffer pattern — publish index then load the peer's waiter
/// count, versus increment waiter count then load the index, all seq_cst —
/// so a wakeup can never be missed.
///
/// Contract: exactly one thread performs send-side ops and one thread
/// recv-side ops. The roles are phantom capabilities: a thread asserts its
/// role with `common::RoleGuard prod(ch.producer_role())` (resp.
/// `consumer_role()`) and the compiler rejects cross-role calls — the guard
/// costs nothing at runtime, it only makes the structural claim checkable.
/// `close()`/`size()` may be called from any thread. As with
/// `Channel`, items pending at close() remain receivable.
/// One deliberate difference: a send *racing* with close() may be dropped
/// even though it returned true — close is a shutdown/failure signal here,
/// and every runtime path that closes a live link also abandons the batch,
/// so both ends already treat the stream as dead. Producers that need clean
/// drain semantics must quiesce before close (the runtime's normal
/// end-of-batch barrier guarantees exactly that).
///
/// The mirror-image guarantee on the receive side: once any recv-side op has
/// reported closed-and-drained (kClosed / nullopt), every later recv-side op
/// reports the same — even if a send that raced close() publishes its slot
/// *after* the consumer observed the drain. Without this, a recovery drain
/// loop could see kClosed, tear down, and a retry could then surface a
/// resurrected item, making the end-of-stream point scheduling-dependent.
/// The flag is consumer-owned (GUARDED_BY the consumer role: only recv-side
/// ops touch it), so it needs no synchronisation under the SPSC contract.
template <typename T>
class SpscChannel {
 public:
  /// \param capacity maximum buffered items; must be >= 1. `T` must be
  /// default-constructible (ring slots) and movable.
  explicit SpscChannel(std::size_t capacity)
      : capacity_(capacity), slots_(capacity) {
    AVGPIPE_CHECK(capacity >= 1, "channel capacity must be positive");
  }

  SpscChannel(const SpscChannel&) = delete;
  SpscChannel& operator=(const SpscChannel&) = delete;

  /// The phantom capability a thread must hold (via RoleGuard) to perform
  /// send-side ops. Holding it is a structural claim — "I am the one
  /// producer of this link" — that the surrounding design must justify.
  common::Role& producer_role() const RETURN_CAPABILITY(producer_role_) {
    return producer_role_;
  }
  /// Recv-side counterpart of `producer_role()`.
  common::Role& consumer_role() const RETURN_CAPABILITY(consumer_role_) {
    return consumer_role_;
  }

  /// Blocking send. Returns false (and drops `value`) if closed.
  bool send(T value) REQUIRES(producer_role_) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    if (!wait_for_space(t)) return false;
    slots_[t % capacity_] = std::move(value);
    publish_tail(t);
    return true;
  }

  /// Blocking receive. Returns nullopt when the channel is closed and
  /// drained; once it has, every later recv-side op agrees (see class
  /// comment).
  std::optional<T> recv() REQUIRES(consumer_role_) {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (wait_for_item(h, kForever) != ChannelStatus::kOk) return std::nullopt;
    T value = std::move(slots_[h % capacity_]);
    consume_head(h);
    return value;
  }

  /// Timed receive: pending items are still delivered after close (kOk),
  /// and kClosed is terminal — after the first kClosed the channel never
  /// reports kOk or kTimeout again.
  ChannelStatus recv_for(T* out, Seconds timeout) REQUIRES(consumer_role_) {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    const ChannelStatus st = wait_for_item(h, timeout);
    if (st != ChannelStatus::kOk) return st;
    *out = std::move(slots_[h % capacity_]);
    consume_head(h);
    return ChannelStatus::kOk;
  }

  /// Close the channel; wakes all parked waiters. Idempotent. See the class
  /// comment for the in-flight-send caveat.
  void close() {
    common::MutexLock lock(park_mutex_);
    closed_.store(true, std::memory_order_seq_cst);
    park_cv_.notify_all();
  }

  /// Buffered item count. Exact when the channel is quiesced; during
  /// concurrent traffic it is a consistent snapshot of one end's progress.
  std::size_t size() const {
    const std::size_t h = head_.load(std::memory_order_acquire);
    const std::size_t t = tail_.load(std::memory_order_acquire);
    return t >= h ? t - h : 0;
  }

  std::size_t capacity() const { return capacity_; }

  /// Cumulative slow-path statistics, both sides combined: `spin_waits()`
  /// counts spin-window entries (an op that missed the two-atomic fast path),
  /// `parks()` counts condvar parks (an op whose spin window also missed).
  /// Relaxed and monotone — a cheap contention probe the runtime samples as
  /// per-batch deltas, never a synchronisation point.
  std::uint64_t spin_waits() const {
    return spin_waits_.load(std::memory_order_relaxed);
  }
  std::uint64_t parks() const {
    return parks_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr Seconds kForever = -1.0;

  bool have_space(std::size_t t) const {
    return t - head_.load(std::memory_order_acquire) < capacity_;
  }
  bool item_ready(std::size_t h) const {
    return tail_.load(std::memory_order_acquire) != h;
  }

  void publish_tail(std::size_t t) REQUIRES(producer_role_) {
    tail_.store(t + 1, std::memory_order_seq_cst);
    if (recv_waiters_.load(std::memory_order_seq_cst) != 0) {
      common::MutexLock lock(park_mutex_);
      park_cv_.notify_all();
    }
  }

  void consume_head(std::size_t h) REQUIRES(consumer_role_) {
    head_.store(h + 1, std::memory_order_seq_cst);
    if (send_waiters_.load(std::memory_order_seq_cst) != 0) {
      common::MutexLock lock(park_mutex_);
      park_cv_.notify_all();
    }
  }

  /// Blocks until slot `t` is free (true) or the channel is closed (false).
  bool wait_for_space(std::size_t t) REQUIRES(producer_role_) {
    if (closed_.load(std::memory_order_acquire)) return false;
    if (have_space(t)) return true;
    spin_waits_.fetch_add(1, std::memory_order_relaxed);
    spin_send_.spin([&] {
      return have_space(t) || closed_.load(std::memory_order_acquire);
    });
    if (closed_.load(std::memory_order_acquire)) return false;
    if (have_space(t)) return true;
    park(send_waiters_, kForever, [&] {
      // seq_cst head load: pairs with consume_head's store for the Dekker
      // handshake (see class comment).
      return t - head_.load(std::memory_order_seq_cst) < capacity_;
    });
    // An untimed park returns with space or closed. Close wins over freed-up
    // space: a send must fail once closed even if the consumer drained while
    // we were parked (mirrors Channel::send).
    return !closed_.load(std::memory_order_acquire);
  }

  /// Consumer-side wait wrapper: makes the closed-and-drained outcome
  /// sticky. A publish_tail racing close() can land *after* the consumer
  /// already observed the drain; without the latch the stream would
  /// "resurrect" and the end-of-stream point would depend on thread timing.
  ChannelStatus wait_for_item(std::size_t h, Seconds timeout)
      REQUIRES(consumer_role_) {
    if (drained_) return ChannelStatus::kClosed;
    const ChannelStatus st = wait_for_item_once(h, timeout);
    if (st == ChannelStatus::kClosed) drained_ = true;
    return st;
  }

  ChannelStatus wait_for_item_once(std::size_t h, Seconds timeout)
      REQUIRES(consumer_role_) {
    if (item_ready(h)) return ChannelStatus::kOk;
    if (closed_.load(std::memory_order_acquire)) {
      // Re-check after the closed read: pending items drain after close.
      return item_ready(h) ? ChannelStatus::kOk : ChannelStatus::kClosed;
    }
    spin_waits_.fetch_add(1, std::memory_order_relaxed);
    spin_recv_.spin([&] {
      return item_ready(h) || closed_.load(std::memory_order_acquire);
    });
    if (item_ready(h)) return ChannelStatus::kOk;
    if (closed_.load(std::memory_order_acquire)) return ChannelStatus::kClosed;
    const ChannelStatus st = park(recv_waiters_, timeout, [&] {
      return tail_.load(std::memory_order_seq_cst) != h;
    });
    // A close that raced the park still delivers a ready item first.
    if (item_ready(h)) return ChannelStatus::kOk;
    return st;
  }

  /// Shared park slow path: register as a waiter, wait on the condvar until
  /// `ready()` or closed (or the timeout elapses), and report the outcome.
  /// `ready` reads only the channel's atomics, never role-guarded state, so
  /// it is safe to evaluate from either role.
  template <typename Ready>
  ChannelStatus park(std::atomic<std::uint32_t>& waiters, Seconds timeout,
                     Ready&& ready) {
    parks_.fetch_add(1, std::memory_order_relaxed);
    common::MutexLock lock(park_mutex_);
    waiters.fetch_add(1, std::memory_order_seq_cst);
    const auto pred = [&] {
      return ready() || closed_.load(std::memory_order_seq_cst);
    };
    if (timeout < 0) {
      while (!pred()) park_cv_.wait(park_mutex_, lock);
    } else {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(timeout));
      while (!pred()) {
        if (park_cv_.wait_until(park_mutex_, lock, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
    }
    waiters.fetch_sub(1, std::memory_order_relaxed);
    if (ready()) return ChannelStatus::kOk;
    return closed_.load(std::memory_order_acquire) ? ChannelStatus::kClosed
                                                   : ChannelStatus::kTimeout;
  }

  const std::size_t capacity_;
  std::vector<T> slots_;
  // Monotone positions; slot index = position % capacity. tail_ written only
  // by the producer, head_ only by the consumer.
  std::atomic<std::size_t> head_{0};
  std::atomic<std::size_t> tail_{0};
  std::atomic<bool> closed_{false};
  // Phantom role capabilities (no runtime state; mutable so const accessors
  // can hand them to RoleGuard).
  mutable common::Role producer_role_;
  mutable common::Role consumer_role_;
  // Consumer-owned end-of-stream latch (recv-side ops only).
  bool drained_ GUARDED_BY(consumer_role_) = false;
  std::atomic<std::uint32_t> send_waiters_{0};
  std::atomic<std::uint32_t> recv_waiters_{0};
  std::atomic<std::uint64_t> spin_waits_{0};
  std::atomic<std::uint64_t> parks_{0};
  common::Mutex park_mutex_;
  common::CondVar park_cv_;
  detail::SpinPolicy spin_send_;
  detail::SpinPolicy spin_recv_;
};

}  // namespace avgpipe
