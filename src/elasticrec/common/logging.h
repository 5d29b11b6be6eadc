#pragma once

/**
 * @file
 * Minimal leveled logger used throughout the library.
 *
 * Logging is stderr-based and globally leveled; benchmarks and tests set
 * the level to Warn to keep output clean, examples use Info.
 */

#include <functional>
#include <sstream>
#include <string>

namespace erec {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/** Set the global log level; messages below it are dropped. */
void setLogLevel(LogLevel level);

/** Current global log level. */
LogLevel logLevel();

/** Receives every emitted record (already level-filtered). */
using LogSink = std::function<void(LogLevel, const std::string &)>;

/**
 * Replace the global sink (default: one line per record on stderr).
 * Pass nullptr to restore the default. Sink installation and every
 * record emission are serialized by an internal mutex, so concurrent
 * logMessage() calls never interleave within one record. Only tests
 * install a sink (logging_test, runtime_serving_test,
 * thread_safety_test) to capture what the library logs.
 */
void setLogSink(LogSink sink);

/** Emit a log record (no-op if below the global level). */
void logMessage(LogLevel level, const std::string &msg);

/** Printable name of a level ("DEBUG", "INFO", ...). */
const char *logLevelName(LogLevel level);

namespace detail {

class LogLine
{
  public:
    explicit LogLine(LogLevel level) : level_(level) {}

    ~LogLine() { logMessage(level_, oss_.str()); }

    template <typename T>
    LogLine &
    operator<<(const T &v)
    {
        oss_ << v;
        return *this;
    }

  private:
    LogLevel level_;
    std::ostringstream oss_;
};

} // namespace detail
} // namespace erec

#define ERC_LOG_DEBUG ::erec::detail::LogLine(::erec::LogLevel::Debug)
#define ERC_LOG_INFO ::erec::detail::LogLine(::erec::LogLevel::Info)
#define ERC_LOG_WARN ::erec::detail::LogLine(::erec::LogLevel::Warn)
#define ERC_LOG_ERROR ::erec::detail::LogLine(::erec::LogLevel::Error)
