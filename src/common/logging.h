#ifndef SQPR_COMMON_LOGGING_H_
#define SQPR_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

namespace sqpr {
namespace logging_internal {

/// Severity ranks for the SQPR_LOG_LEVEL filter (higher = louder).
enum class LogLevel : int { kInfo = 0, kWarn = 1, kFatal = 2 };

/// Maps an SQPR_LOG_LEVEL value to a severity floor: "WARN"/"WARNING",
/// "FATAL"/"ERROR"; anything else (including unset) is "INFO".
inline LogLevel ParseLogLevel(const char* env) {
  if (env == nullptr) return LogLevel::kInfo;
  if (std::strcmp(env, "WARN") == 0 || std::strcmp(env, "WARNING") == 0) {
    return LogLevel::kWarn;
  }
  if (std::strcmp(env, "FATAL") == 0 || std::strcmp(env, "ERROR") == 0) {
    return LogLevel::kFatal;
  }
  return LogLevel::kInfo;
}

/// Minimum severity that is emitted, from the SQPR_LOG_LEVEL environment
/// variable. Read once per process — tools that want runtime control
/// re-exec. FATAL messages always abort even when their text is
/// suppressed.
inline LogLevel MinLogLevel() {
  static const LogLevel level = ParseLogLevel(std::getenv("SQPR_LOG_LEVEL"));
  return level;
}

/// Collects a message via operator<< and emits it (plus abort for fatal
/// severities) on destruction. Used only through the macros below.
class LogMessage {
 public:
  LogMessage(const char* severity, const char* file, int line, LogLevel level)
      : level_(level) {
    stream_ << "[" << severity << " " << file << ":" << line << "] ";
  }
  ~LogMessage() {
    if (level_ >= MinLogLevel()) {
      stream_ << "\n";
      // One fwrite per message, not per chunk: stdio only guarantees
      // atomicity per call, so a single write keeps lines from
      // concurrent threads from interleaving mid-record.
      const std::string text = stream_.str();
      std::fwrite(text.data(), 1, text.size(), stderr);
    }
    if (level_ == LogLevel::kFatal) std::abort();
  }

  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
  LogLevel level_;
};

}  // namespace logging_internal
}  // namespace sqpr

#define SQPR_LOG_INFO                                      \
  ::sqpr::logging_internal::LogMessage(                    \
      "INFO", __FILE__, __LINE__,                          \
      ::sqpr::logging_internal::LogLevel::kInfo)           \
      .stream()
#define SQPR_LOG_WARN                                      \
  ::sqpr::logging_internal::LogMessage(                    \
      "WARN", __FILE__, __LINE__,                          \
      ::sqpr::logging_internal::LogLevel::kWarn)           \
      .stream()
#define SQPR_LOG_FATAL                                     \
  ::sqpr::logging_internal::LogMessage(                    \
      "FATAL", __FILE__, __LINE__,                         \
      ::sqpr::logging_internal::LogLevel::kFatal)          \
      .stream()

/// Aborts with a message when an invariant is violated. Active in all
/// build modes: planner correctness depends on these invariants and the
/// cost of the check is negligible next to simplex pivots.
#define SQPR_CHECK(cond)                                        \
  if (!(cond)) SQPR_LOG_FATAL << "Check failed: " #cond << " "

#define SQPR_CHECK_OK(expr)                                          \
  do {                                                               \
    ::sqpr::Status _s = (expr);                                      \
    if (!_s.ok()) SQPR_LOG_FATAL << "Status not OK: " << _s.ToString(); \
  } while (0)

#define SQPR_DCHECK(cond) SQPR_CHECK(cond)

#endif  // SQPR_COMMON_LOGGING_H_
