/**
 * @file
 * Strict parsing of command-line values.
 *
 * atoi() and friends read "abc" as 0 and "12x" as 12, so a typo
 * silently runs a different experiment. These helpers accept only a
 * whole string holding a nonnegative integer (decimal, 0x hex or
 * 0-prefixed octal, as strtoull base 0) that fits the target type.
 */

#ifndef CYCLOPS_COMMON_PARSE_H
#define CYCLOPS_COMMON_PARSE_H

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/types.h"

namespace cyclops
{

/**
 * Parse @p text as a nonnegative integer into @p out. False (and
 * @p out untouched) for an empty string, a sign, trailing characters,
 * or a value above u64 range.
 */
inline bool
parseU64(const char *text, u64 *out)
{
    if (text == nullptr || *text == '\0' ||
        std::strchr(text, '-') != nullptr ||
        std::strchr(text, '+') != nullptr)
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (errno != 0 || end == text || *end != '\0')
        return false;
    *out = v;
    return true;
}

/** parseU64() into a u32: also false above u32 range. */
inline bool
parseU32(const char *text, u32 *out)
{
    u64 v = 0;
    if (!parseU64(text, &v) || v > std::numeric_limits<u32>::max())
        return false;
    *out = u32(v);
    return true;
}

/**
 * Parse a directed link "A->B" (with @p value null) or "A->B=N" into
 * u32 parts. False (and the outputs untouched) if malformed.
 */
inline bool
parseLink(const std::string &text, u32 *src, u32 *dst, u32 *value = nullptr)
{
    const size_t arrow = text.find("->");
    const size_t eq = value ? text.find('=') : text.size();
    if (arrow == std::string::npos || eq == std::string::npos ||
        eq < arrow)
        return false;
    u32 a = 0, b = 0, v = 0;
    if (!parseU32(text.substr(0, arrow).c_str(), &a) ||
        !parseU32(text.substr(arrow + 2, eq - arrow - 2).c_str(), &b) ||
        (value && !parseU32(text.substr(eq + 1).c_str(), &v)))
        return false;
    *src = a;
    *dst = b;
    if (value)
        *value = v;
    return true;
}

/**
 * Parse nonzero dimensions "X,Y,Z" or "XxYxZ". False (and @p dims
 * untouched) if malformed.
 */
inline bool
parseDims(const std::string &text, u32 dims[3])
{
    const char sep = text.find(',') != std::string::npos ? ',' : 'x';
    u32 parsed[3];
    size_t pos = 0;
    for (int d = 0; d < 3; ++d) {
        const size_t end = d < 2 ? text.find(sep, pos) : text.size();
        if (end == std::string::npos ||
            !parseU32(text.substr(pos, end - pos).c_str(), &parsed[d]) ||
            parsed[d] == 0)
            return false;
        pos = end + 1;
    }
    std::copy(parsed, parsed + 3, dims);
    return true;
}

} // namespace cyclops

#endif // CYCLOPS_COMMON_PARSE_H
