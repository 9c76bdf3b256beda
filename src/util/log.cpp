#include "util/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <iostream>

namespace gtopk::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Info};
std::mutex g_sink_mutex;
thread_local int t_rank = -1;

char level_letter(LogLevel level) {
    switch (level) {
        case LogLevel::Trace: return 'T';
        case LogLevel::Debug: return 'D';
        case LogLevel::Info: return 'I';
        case LogLevel::Warn: return 'W';
        case LogLevel::Error: return 'E';
        case LogLevel::Off: return '?';
    }
    return '?';
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void set_thread_rank(int rank) { t_rank = rank; }

std::string format_log_line(LogLevel level, const std::string& message, int rank) {
    const auto now = std::chrono::system_clock::now();
    const std::time_t secs = std::chrono::system_clock::to_time_t(now);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        now.time_since_epoch())
                        .count() %
                    1000;
    std::tm tm{};
    localtime_r(&secs, &tm);

    char head[48];
    if (rank >= 0) {
        std::snprintf(head, sizeof(head), "[%c %02d:%02d:%02d.%03d r%02d] ",
                      level_letter(level), tm.tm_hour, tm.tm_min, tm.tm_sec,
                      static_cast<int>(ms), rank);
    } else {
        std::snprintf(head, sizeof(head), "[%c %02d:%02d:%02d.%03d] ",
                      level_letter(level), tm.tm_hour, tm.tm_min, tm.tm_sec,
                      static_cast<int>(ms));
    }
    return std::string(head) + message;
}

void log_line(LogLevel level, const std::string& message) {
    const std::string line = format_log_line(level, message, t_rank);
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    std::cerr << line << "\n";
}

}  // namespace gtopk::util
