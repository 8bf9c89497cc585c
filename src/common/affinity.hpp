#pragma once

/// \file affinity.hpp
/// Optional core pinning for stage threads and the reference process.
///
/// The threaded runtime gives every pipeline stage its own thread (which
/// also runs that stage's elastic sync) plus one reference-process thread.
/// Left to the
/// OS scheduler these migrate freely, which costs cache warmth on the
/// compute-bound calibrated workloads. AVGPIPE_PIN_THREADS opts into a
/// static thread→core layout:
///
///   - unset / "" / "0" / "off"  no pinning (the default)
///   - "compact" / "1"           slot i on core i (dense, shares caches)
///   - "scatter"                 slots spread evenly across the core list
///                               (one slot per physical region on SMT
///                               machines enumerated core-major)
///
/// Pinning is strictly best-effort: it is a silent no-op (returning false)
/// when the policy is off, when the layout is oversubscribed (more slots
/// than cores — pinning would stack threads on one core and serialize the
/// pipe), or on platforms without pthread affinity. Correctness never
/// depends on it.

#include <cstddef>
#include <cstdint>

namespace avgpipe {

enum class PinPolicy : std::uint8_t { kNone = 0, kCompact, kScatter };

const char* to_string(PinPolicy policy);

/// Parse an AVGPIPE_PIN_THREADS-style value. "compact" and "1" select
/// kCompact, "scatter" selects kScatter; anything else (null, empty, "0",
/// "off", junk) keeps pinning off — the knob is strictly opt-in.
PinPolicy parse_pin_policy(const char* value);

/// Process-wide policy from AVGPIPE_PIN_THREADS, read once on first use.
PinPolicy pin_policy_from_env();

/// Cores available for pinning: hardware_concurrency, min 1.
std::size_t num_cores();

/// The core a slot maps to under `policy` given `cores` cores. Compact packs
/// slots onto consecutive cores; scatter places slot i on
/// floor(i * cores / total_slots), spreading the slots evenly. Pure layout
/// math (no syscalls) so tests can pin down both layouts on any machine.
std::size_t pin_core_for_slot(PinPolicy policy, std::size_t slot,
                              std::size_t total_slots, std::size_t cores);

/// Pin the calling thread to its slot's core. Returns false without touching
/// the affinity mask when the policy is kNone, the slot is out of range,
/// total_slots exceeds num_cores() (oversubscribed layout), or the platform
/// or syscall does not cooperate.
bool pin_current_thread(PinPolicy policy, std::size_t slot,
                        std::size_t total_slots);

}  // namespace avgpipe
