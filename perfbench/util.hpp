#pragma once

/// \file util.hpp
/// Small helpers shared by the benchmark's translation units: a steady
/// clock, order statistics, process memory readings and a metric sink that
/// prints each metric by name with its unit and renders the final JSON line.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile of `v` (q in [0,1]); 0 for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Resident and peak-resident set size of this process, in MiB, from
/// /proc/self/status (0 where the file is unavailable).
struct Memory {
  double rss_mb = 0;
  double peak_mb = 0;
};

inline Memory read_memory() {
  Memory m;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    const auto parse_kb = [&](const char* key, double* out) {
      if (line.rfind(key, 0) != 0) return;
      std::istringstream fields(line.substr(std::string(key).size()));
      double kb = 0;
      fields >> kb;
      *out = kb / 1024.0;
    };
    parse_kb("VmRSS:", &m.rss_mb);
    parse_kb("VmHWM:", &m.peak_mb);
  }
  return m;
}

/// Aggregate CPU time counters from /proc/stat (clock ticks), for the share
/// of CPU time the hypervisor stole from this machine over an interval.
struct CpuTicks {
  double steal = 0;
  double total = 0;
};

inline CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line comes first
  double v = 0;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

inline double steal_share(const CpuTicks& a, const CpuTicks& b) {
  return b.total > a.total ? (b.steal - a.steal) / (b.total - a.total) : 0.0;
}

/// Ordered (name, value, unit) records. `print_line` echoes each metric as it
/// is added so a human reading the run sees every number with its unit; the
/// JSON rendering is the machine-readable last line.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
    std::printf("  %-36s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }

  std::string json() const {
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      // Every digit as measured; non-finite values cannot appear in JSON.
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
      std::snprintf(value, sizeof(value), "%.17g", v);
      os << (i ? ", " : "") << "\"" << entries_[i].name << "\": {\"value\": "
         << value << ", \"unit\": \"" << entries_[i].unit << "\"}";
    }
    os << "}";
    return os.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
