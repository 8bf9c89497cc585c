#pragma once

/// \file log.hpp
/// Minimal leveled logger. Thread-safe (a single global mutex serialises
/// writes). Intended for coarse progress reporting, not hot paths.

#include <sstream>
#include <string>

namespace avgpipe {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Minimum level (kWarn); messages below it are dropped.
LogLevel log_level();

namespace detail {
void log_write(LogLevel level, const std::string& msg);

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_write(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace avgpipe

#define AVGPIPE_LOG(level)                                   \
  if (::avgpipe::LogLevel::level < ::avgpipe::log_level()) { \
  } else                                                     \
    ::avgpipe::detail::LogLine(::avgpipe::LogLevel::level)

#define LOG_DEBUG AVGPIPE_LOG(kDebug)
#define LOG_INFO AVGPIPE_LOG(kInfo)
#define LOG_WARN AVGPIPE_LOG(kWarn)
#define LOG_ERROR AVGPIPE_LOG(kError)
