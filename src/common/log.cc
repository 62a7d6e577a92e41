#include "common/log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace cyclops
{

namespace
{
// Atomic so concurrent Chip instances (parallel sweeps) may log while
// another host thread adjusts the verbosity.
std::atomic<LogLevel> gLevel{LogLevel::Normal};
} // namespace

void
setLogLevel(LogLevel level)
{
    gLevel.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return gLevel.load(std::memory_order_relaxed);
}

std::string
vstrprintf(va_list args, const char *fmt)
{
    va_list copy;
    va_copy(copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (len < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(len));
}

std::string
vstrprintf(const char *fmt, va_list args)
{
    return vstrprintf(args, fmt);
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(args, fmt);
    va_end(args);
    return s;
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(args, fmt);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(args, fmt);
    va_end(args);
    std::fprintf(stderr, "fatal: %s\n", s.c_str());
    std::exit(1);
}

std::FILE *
openOutput(const std::string &path, const char *what)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot open %s '%s'", what, path.c_str());
    return f;
}

void
closeOutput(std::FILE *f, const std::string &path)
{
    const bool writeFailed = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || writeFailed)
        fatal("cannot write '%s'", path.c_str());
}

void
warn(const char *fmt, ...)
{
    if (gLevel < LogLevel::Normal)
        return;
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(args, fmt);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", s.c_str());
}

void
inform(const char *fmt, ...)
{
    if (gLevel < LogLevel::Normal)
        return;
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(args, fmt);
    va_end(args);
    std::fprintf(stderr, "info: %s\n", s.c_str());
}

void
debugLog(const char *fmt, ...)
{
    if (gLevel < LogLevel::Debug)
        return;
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(args, fmt);
    va_end(args);
    std::fprintf(stderr, "debug: %s\n", s.c_str());
}

void
guestCheck(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(args, fmt);
    va_end(args);
    throw GuestError(GuestError::Kind::Check, s);
}

void
guestCrash(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(args, fmt);
    va_end(args);
    throw GuestError(GuestError::Kind::Crash, s);
}

} // namespace cyclops
