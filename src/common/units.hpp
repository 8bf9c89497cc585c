#pragma once

/// \file units.hpp
/// Physical units used by the cluster simulator and cost models.
///
/// We keep units as plain doubles with descriptive aliases (the simulator's
/// arithmetic crosses unit boundaries constantly; strong types would add
/// noise without catching real bugs here), but centralise the conversion
/// constants and human-readable formatting in one place.

#include <cstdint>
#include <string>

namespace avgpipe {

using Seconds = double;  ///< wall/virtual time in seconds
using Bytes = double;    ///< data volume in bytes
using Flops = double;    ///< floating point operations

// -- conversion constants ----------------------------------------------------

inline constexpr double kKiB = 1024.0;
inline constexpr double kMiB = 1024.0 * kKiB;
inline constexpr double kGiB = 1024.0 * kMiB;

inline constexpr double kKFLOP = 1e3;
inline constexpr double kMFLOP = 1e6;
inline constexpr double kGFLOP = 1e9;
inline constexpr double kTFLOP = 1e12;

inline constexpr Seconds kMicrosecond = 1e-6;
inline constexpr Seconds kMillisecond = 1e-3;
inline constexpr Seconds kMinute = 60.0;
inline constexpr Seconds kHour = 3600.0;

/// 1 Gbps Ethernet payload bandwidth in bytes/second.
inline constexpr double kGigabitPerSecond = 1e9 / 8.0;

// -- formatting ---------------------------------------------------------------

/// "1.50 GiB", "312.0 MiB", ...
std::string format_bytes(Bytes bytes);

/// "2.5 h", "13.2 min", "42.1 s", "3.1 ms", ...
std::string format_seconds(Seconds s);

/// "87.3%"
std::string format_percent(double fraction);

}  // namespace avgpipe
