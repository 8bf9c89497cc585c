#include "common/log.hpp"

#include <cstdio>

#include "common/annotations.hpp"

namespace avgpipe {

namespace {
constexpr LogLevel kLevel = LogLevel::kWarn;
common::Mutex g_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel log_level() { return kLevel; }

namespace detail {
void log_write(LogLevel level, const std::string& msg) {
  common::MutexLock lock(g_mutex);
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}
}  // namespace detail

}  // namespace avgpipe
