// Minimal leveled logger.
//
// A single process hosts many simulated workers (threads), so every sink
// write is serialized behind one mutex and each line is attributable:
// "[I 12:03:04.512 r03] message" — single-letter level, wall-clock
// timestamp, and the emitting thread's rank when one was set (the Cluster
// tags its worker threads). Log level is a process-wide knob; benches
// typically run at Warn to keep bench output machine-parsable.
#pragma once

#include <mutex>
#include <sstream>
#include <string>

namespace gtopk::util {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Process-wide minimum level; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Tag the calling thread with a worker rank (-1 = untagged, the default);
/// tagged threads get an "rNN" field in their log lines.
void set_thread_rank(int rank);

/// Formats "[<L> HH:MM:SS.mmm rNN] message" (rank field only on tagged
/// threads) — exposed so tests can pin the format.
std::string format_log_line(LogLevel level, const std::string& message, int rank);

/// Writes one formatted line to stderr, thread-safe.
void log_line(LogLevel level, const std::string& message);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}
}  // namespace detail

template <typename... Args>
void log(LogLevel level, Args&&... args) {
    if (level < log_level()) return;
    log_line(level, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_info(Args&&... args) {
    log(LogLevel::Info, std::forward<Args>(args)...);
}
template <typename... Args>
void log_warn(Args&&... args) {
    log(LogLevel::Warn, std::forward<Args>(args)...);
}
template <typename... Args>
void log_error(Args&&... args) {
    log(LogLevel::Error, std::forward<Args>(args)...);
}

}  // namespace gtopk::util
