/**
 * @file
 * Logging and error-reporting helpers.
 *
 * Follows the gem5 discipline:
 *  - panic()  -> a simulator bug: something that must never happen
 *               regardless of user input. Aborts (core-dumpable).
 *  - fatal()  -> a user error (bad configuration, malformed assembly,
 *               invalid argument). Exits with status 1.
 *  - warn()   -> functionality that may be imperfect but continues.
 *  - inform() -> normal status messages.
 *
 * Guest misbehaviour is different from both: a simulated program doing
 * something architecturally invalid (misaligned access, wild PC) must
 * not kill the host process — fault-injection campaigns and fuzzers
 * need to observe and classify it. Those paths throw GuestError via
 * guestCheck()/guestCrash() instead.
 */

#ifndef CYCLOPS_COMMON_LOG_H
#define CYCLOPS_COMMON_LOG_H

#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace cyclops
{

/** Verbosity levels for inform()/debug logging. */
enum class LogLevel { Quiet = 0, Normal = 1, Verbose = 2, Debug = 3 };

/** Set the global log verbosity (default Normal). */
void setLogLevel(LogLevel level);

/** Current global log verbosity. */
LogLevel logLevel();

/** Printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Vprintf-style formatting into a std::string. */
std::string vstrprintf(const char *fmt, va_list args);

/** Report a simulator bug and abort. Never returns. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a user error and exit(1). Never returns. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a recoverable concern to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operational status to stderr (Normal level and up). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Verbose diagnostic output (Debug level only). */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Open @p path for writing; fatal() naming @p what (e.g. "trace
 * output") if it cannot be opened. Pair with closeOutput().
 */
std::FILE *openOutput(const std::string &path, const char *what);

/**
 * Close a file from openOutput(); fatal() if any write to it failed or
 * the close itself did (a full disk surfaces only here, when buffered
 * data is flushed).
 */
void closeOutput(std::FILE *f, const std::string &path);

/**
 * An architecturally invalid action by the simulated program.
 *
 * Check: the hardware *detects* the condition and could raise a precise
 * exception (misaligned access, write to an unknown SPR, access to a
 * disabled scratchpad window). Crash: wild execution with no defined
 * recovery (PC outside the program text, access beyond physical
 * memory). Fault-injection campaigns map Check to "detected" and Crash
 * to "crash"; interactive frontends report the message and exit
 * nonzero.
 */
class GuestError : public std::runtime_error
{
  public:
    enum class Kind { Check, Crash };

    GuestError(Kind kind, const std::string &what)
        : std::runtime_error(what), kind_(kind)
    {
    }

    Kind kind() const { return kind_; }

  private:
    Kind kind_;
};

/** Throw GuestError{Check} with a printf-formatted message. */
[[noreturn]] void guestCheck(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Throw GuestError{Crash} with a printf-formatted message. */
[[noreturn]] void guestCrash(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace cyclops

#endif // CYCLOPS_COMMON_LOG_H
