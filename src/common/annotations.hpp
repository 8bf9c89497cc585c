#pragma once

/// \file annotations.hpp
/// Clang Thread Safety annotations + annotated mutex/condvar wrappers.
///
/// The repo's concurrency contracts (DESIGN.md §13/§17) — "the reference
/// process (the driver) alone mutates averaged state", "an SPSC endpoint
/// belongs to exactly one thread per role", "replica-side policy hooks are
/// const and concurrent" — live here as *capabilities* the compiler checks.
/// Under clang with -Wthread-safety, touching guarded state without holding
/// its capability is a compile error; under gcc every macro expands to nothing and the wrappers
/// are zero-cost veneers over the std primitives.
///
/// Three kinds of capability appear in the repo:
///  - `common::Mutex`: a real lock (wraps std::mutex). Guards data via
///    GUARDED_BY; acquired via `MutexLock` (scoped) or `lock()/unlock()`.
///  - `common::Role`: a *phantom* capability — no runtime state at all. It
///    names a structural exclusivity the design already provides (the single
///    producer of an SPSC channel, the driver as the reference process).
///    `RoleGuard` "acquires" it so the analysis can prove cross-role calls
///    never happen.
///  - Negative contracts: EXCLUDES(m) on a function documents (and checks)
///    that callers must NOT hold m — the tool for "replica-side paths never
///    play the reference process".
///
/// Raw std::mutex/std::lock_guard/std::condition_variable are banned outside
/// this header by tools/avgpipe_lint (rule `raw-mutex`).

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define AVGPIPE_TSA(x) __attribute__((x))
#else
#define AVGPIPE_TSA(x)  // no-op off clang
#endif

#define CAPABILITY(x) AVGPIPE_TSA(capability(x))
#define SCOPED_CAPABILITY AVGPIPE_TSA(scoped_lockable)
#define GUARDED_BY(x) AVGPIPE_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) AVGPIPE_TSA(pt_guarded_by(x))
#define ACQUIRE(...) AVGPIPE_TSA(acquire_capability(__VA_ARGS__))
#define RELEASE(...) AVGPIPE_TSA(release_capability(__VA_ARGS__))
#define REQUIRES(...) AVGPIPE_TSA(requires_capability(__VA_ARGS__))
#define EXCLUDES(...) AVGPIPE_TSA(locks_excluded(__VA_ARGS__))
#define RETURN_CAPABILITY(x) AVGPIPE_TSA(lock_returned(x))

/// Marker consumed by tools/avgpipe_lint (rule `hot-path-alloc`): place on
/// the line immediately before a function *definition* to ban heap
/// allocation (new/make_unique/make_shared/malloc) and `Tensor::clone()`
/// inside its body. Expands to nothing; it exists so the per-iteration
/// steady-state paths (run_instr, the stage sync hook, the reference fold)
/// cannot silently grow an allocation.
#define AVGPIPE_HOT_PATH

namespace avgpipe::common {

/// Annotated mutex. Same cost and semantics as std::mutex; the annotation
/// makes it a capability the analysis can track.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mutex_.lock(); }
  void unlock() RELEASE() { mutex_.unlock(); }
  bool try_lock() AVGPIPE_TSA(try_acquire_capability(true)) {
    return mutex_.try_lock();
  }

  /// Escape hatch for CondVar, which must hand the raw handle to the std
  /// wait machinery. Not for general use.
  std::mutex& native_handle() { return mutex_; }

 private:
  std::mutex mutex_;
};

/// Scoped lock over `Mutex` (std::unique_lock underneath, so CondVar can
/// wait on it). Supports early `unlock()` for the unlock-before-notify
/// idiom; destruction releases only if still held.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex)
      : mutex_(mutex), lock_(mutex.native_handle()) {}
  ~MutexLock() RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Release before end of scope (unlock-before-notify). The analysis treats
  /// the capability as gone from this point on.
  void unlock() RELEASE() { lock_.unlock(); }

 private:
  friend class CondVar;
  Mutex& mutex_;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to `MutexLock`.
///
/// Deliberately has no predicate overloads: clang analyses a predicate
/// lambda as a separate function that does not hold the caller's capability,
/// so `cv.wait(lock, [&]{ return guarded_; })` would warn on every guarded
/// read. Callers write the explicit loop instead:
///
///     while (!condition) cv.wait(mutex_, lock);  // capability provably held
///
/// The waits take the Mutex alongside the MutexLock because the analysis
/// matches capabilities by spelling at the call site: REQUIRES(mu) against
/// the caller's held `mutex_` unifies, whereas REQUIRES(lock.mutex_) would
/// not. The pair must name the same mutex the lock holds.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  /// The capability is released while parked and re-held on return — the
  /// standard condvar contract, which REQUIRES models exactly (held before,
  /// held after; the gap is invisible to callers).
  void wait(Mutex& mu, MutexLock& lock) REQUIRES(mu) {
    static_cast<void>(mu);
    cv_.wait(lock.lock_);
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(Mutex& mu, MutexLock& lock,
                            const std::chrono::time_point<Clock, Duration>& tp)
      REQUIRES(mu) {
    static_cast<void>(mu);
    return cv_.wait_until(lock.lock_, tp);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu, MutexLock& lock,
                          const std::chrono::duration<Rep, Period>& d)
      REQUIRES(mu) {
    static_cast<void>(mu);
    return cv_.wait_for(lock.lock_, d);
  }

 private:
  std::condition_variable cv_;
};

/// Phantom capability: a named role with no runtime state. acquire/release
/// compile to nothing; holding one is purely a statement the analysis
/// checks. Used for the SPSC producer/consumer split and the elastic
/// reference-side serialization contract.
class CAPABILITY("role") Role {
 public:
  Role() = default;
  Role(const Role&) = delete;
  Role& operator=(const Role&) = delete;

  void acquire() ACQUIRE() {}
  void release() RELEASE() {}
};

/// Scoped assertion that the current thread plays `role` for this region.
/// Zero-cost: it exists so REQUIRES(role) call sites type-check. Taking a
/// RoleGuard is a claim the surrounding design must justify (one producer
/// thread, the driver as the reference process, a single-threaded phase,
/// ...) — the justification belongs in a comment at the guard site.
class SCOPED_CAPABILITY RoleGuard {
 public:
  explicit RoleGuard(Role& role) ACQUIRE(role) : role_(role) {
    role_.acquire();
  }
  ~RoleGuard() RELEASE() { role_.release(); }

  RoleGuard(const RoleGuard&) = delete;
  RoleGuard& operator=(const RoleGuard&) = delete;

 private:
  Role& role_;
};

}  // namespace avgpipe::common
