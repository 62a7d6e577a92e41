/**
 * @file
 * Strict parsing of numeric command-line values.
 *
 * atoi() and friends read "abc" as 0 and "12x" as 12, so a typo
 * silently runs a different experiment. These helpers accept only a
 * whole string holding a nonnegative integer (decimal, 0x hex or
 * 0-prefixed octal, as strtoull base 0) that fits the target type.
 */

#ifndef CYCLOPS_COMMON_PARSE_H
#define CYCLOPS_COMMON_PARSE_H

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

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

} // namespace cyclops

#endif // CYCLOPS_COMMON_PARSE_H
