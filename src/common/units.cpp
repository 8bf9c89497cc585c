#include "common/units.hpp"

#include <cmath>
#include <cstdio>

namespace avgpipe {

namespace {
std::string format_scaled(double value, const char* const* suffixes,
                          int n_suffixes, double base) {
  int idx = 0;
  double v = value;
  while (std::fabs(v) >= base && idx + 1 < n_suffixes) {
    v /= base;
    ++idx;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", v, suffixes[idx]);
  return buf;
}
}  // namespace

std::string format_bytes(Bytes bytes) {
  static const char* suffixes[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  return format_scaled(bytes, suffixes, 5, 1024.0);
}

std::string format_seconds(Seconds s) {
  char buf[64];
  double a = std::fabs(s);
  if (a >= kHour) {
    std::snprintf(buf, sizeof(buf), "%.2f h", s / kHour);
  } else if (a >= kMinute) {
    std::snprintf(buf, sizeof(buf), "%.2f min", s / kMinute);
  } else if (a >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f s", s);
  } else if (a >= kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", s / kMillisecond);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f us", s / kMicrosecond);
  }
  return buf;
}

std::string format_percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace avgpipe
