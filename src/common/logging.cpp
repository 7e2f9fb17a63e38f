#include "logging.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pgcn {

namespace {

/** The active severity filter (lazily initialised from PGCN_LOG).
 *  Atomic: sweep workers consult it concurrently, and the first log
 *  call may happen on any thread. */
std::atomic<LogLevel> g_level { LogLevel::Info };
std::atomic<bool> g_level_initialized { false };

LogLevel
activeLevel()
{
    if (!g_level_initialized.load(std::memory_order_acquire))
        refreshLogLevelFromEnv();
    return g_level.load(std::memory_order_relaxed);
}

} // namespace

LogLevel
parseLogLevel(const char *text, LogLevel fallback)
{
    if (text == nullptr)
        return fallback;
    std::string lower;
    for (const char *p = text; *p != '\0'; ++p)
        lower.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
    if (lower == "error")
        return LogLevel::Error;
    if (lower == "warn" || lower == "warning")
        return LogLevel::Warn;
    if (lower == "info")
        return LogLevel::Info;
    if (lower == "debug")
        return LogLevel::Debug;
    return fallback;
}

LogLevel
logLevel()
{
    return activeLevel();
}

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
    g_level_initialized.store(true, std::memory_order_release);
}

void
refreshLogLevelFromEnv()
{
    g_level.store(parseLogLevel(std::getenv("PGCN_LOG"), LogLevel::Info),
                  std::memory_order_relaxed);
    g_level_initialized.store(true, std::memory_order_release);
}

bool
logEnabled(LogLevel severity)
{
    return static_cast<int>(severity) <= static_cast<int>(activeLevel());
}

void
panic(const char *file, int line, const std::string &message)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", message.c_str(), file,
                 line);
    std::fflush(stderr);
    std::abort();
}

void
fatal(const std::string &message)
{
    std::fprintf(stderr, "fatal: %s\n", message.c_str());
    std::fflush(stderr);
    std::exit(1);
}

void
warn(const std::string &message)
{
    if (logEnabled(LogLevel::Warn))
        std::fprintf(stderr, "warn: %s\n", message.c_str());
}

void
inform(const std::string &message)
{
    if (logEnabled(LogLevel::Info))
        std::fprintf(stderr, "info: %s\n", message.c_str());
}

void
debug(const std::string &message)
{
    if (logEnabled(LogLevel::Debug))
        std::fprintf(stderr, "debug: %s\n", message.c_str());
}

} // namespace pgcn
