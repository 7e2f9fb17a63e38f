/**
 * @file
 * Error-reporting and status-message primitives.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a bug in this library), fatal() is for user errors
 * (bad configuration, impossible parameters). Both terminate;
 * warn()/inform()/debug() never do.
 *
 * Non-fatal messages are severity-filtered: the PGCN_LOG environment
 * variable (error | warn | info | debug, case-insensitive) sets the
 * maximum severity printed, defaulting to info. panic/fatal output is
 * never suppressed.
 */
#ifndef PGCN_COMMON_LOGGING_HPP
#define PGCN_COMMON_LOGGING_HPP

#include <sstream>
#include <string>

namespace pgcn {

/**
 * Terminate with an internal-bug diagnostic. Call when an invariant
 * that no user input should be able to violate has been violated.
 * Calls std::abort() so a core dump / debugger trap is possible.
 *
 * @param file Source file of the failure (use __FILE__).
 * @param line Source line of the failure (use __LINE__).
 * @param message Human-readable description of the violated invariant.
 */
[[noreturn]] void panic(const char *file, int line, const std::string &message);

/**
 * Terminate with a user-error diagnostic. Call when the simulation
 * cannot continue due to a configuration or argument error that is
 * the caller's fault. Exits with status 1 (no core dump).
 *
 * @param message Human-readable description of the user error.
 */
[[noreturn]] void fatal(const std::string &message);

/**
 * Severity of a non-fatal log message, ordered from most to least
 * severe. The active level admits everything at or above it.
 */
enum class LogLevel
{
    Error = 0, ///< only panic/fatal diagnostics (never suppressed)
    Warn = 1,  ///< warn() and above
    Info = 2,  ///< inform() and above (the default)
    Debug = 3, ///< everything, including debug()
};

/**
 * The active log level. Initialised from the PGCN_LOG environment
 * variable on first use; overridable with setLogLevel().
 */
LogLevel logLevel();

/**
 * Override the active log level programmatically (takes precedence
 * over PGCN_LOG until refreshLogLevelFromEnv() is called).
 */
void setLogLevel(LogLevel level);

/**
 * Re-read PGCN_LOG and make it the active level (missing or
 * unparsable values fall back to Info).
 */
void refreshLogLevelFromEnv();

/**
 * Parse a log-level name ("error", "warn"/"warning", "info",
 * "debug", case-insensitive) to its LogLevel.
 *
 * @param text The name to parse; may be null.
 * @param fallback Returned when @p text is null or unrecognised.
 */
LogLevel parseLogLevel(const char *text, LogLevel fallback);

/** Whether a message of @p severity passes the active filter. */
bool logEnabled(LogLevel severity);

/**
 * Print a non-fatal warning to stderr. Use when behaviour may be
 * surprising but execution can continue.
 *
 * @param message The warning text.
 */
void warn(const std::string &message);

/**
 * Print an informational status message to stderr.
 *
 * @param message The status text.
 */
void inform(const std::string &message);

/**
 * Print a debugging trace message to stderr; suppressed unless
 * PGCN_LOG=debug (or setLogLevel(LogLevel::Debug)).
 *
 * @param message The trace text.
 */
void debug(const std::string &message);

} // namespace pgcn

/**
 * Assert an internal invariant; on failure, panic with the stringified
 * condition and an optional message. Active in all build types because
 * simulator correctness bugs silently corrupt results otherwise.
 */
#define PGCN_ASSERT(cond, msg)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::ostringstream pgcn_assert_oss_;                            \
            pgcn_assert_oss_ << "assertion `" #cond "` failed: " << msg;    \
            ::pgcn::panic(__FILE__, __LINE__, pgcn_assert_oss_.str());      \
        }                                                                   \
    } while (0)

/** Panic unconditionally with a streamed message. */
#define PGCN_PANIC(msg)                                                     \
    do {                                                                    \
        std::ostringstream pgcn_panic_oss_;                                 \
        pgcn_panic_oss_ << msg;                                             \
        ::pgcn::panic(__FILE__, __LINE__, pgcn_panic_oss_.str());           \
    } while (0)

/** Fatal user error with a streamed message. */
#define PGCN_FATAL(msg)                                                     \
    do {                                                                    \
        std::ostringstream pgcn_fatal_oss_;                                 \
        pgcn_fatal_oss_ << msg;                                             \
        ::pgcn::fatal(pgcn_fatal_oss_.str());                               \
    } while (0)

#endif // PGCN_COMMON_LOGGING_HPP
