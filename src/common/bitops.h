/**
 * @file
 * Small bit-manipulation helpers used by the ISA encoder/decoder and the
 * address-mapping logic.
 */

#ifndef CYCLOPS_COMMON_BITOPS_H
#define CYCLOPS_COMMON_BITOPS_H

#include <bit>
#include <cmath>
#include <initializer_list>
#include <type_traits>

#include "common/types.h"

namespace cyclops
{

/** Extract bits [hi:lo] (inclusive) of @p value, right-justified. */
template <typename T>
constexpr T
bits(T value, unsigned hi, unsigned lo)
{
    static_assert(std::is_unsigned_v<T>);
    const unsigned width = hi - lo + 1;
    if (width >= sizeof(T) * 8)
        return value >> lo;
    return (value >> lo) & ((T(1) << width) - 1);
}

/** Insert @p field into bits [hi:lo] of a zero background. */
template <typename T>
constexpr T
insertBits(T field, unsigned hi, unsigned lo)
{
    static_assert(std::is_unsigned_v<T>);
    const unsigned width = hi - lo + 1;
    T mask = width >= sizeof(T) * 8 ? ~T(0) : ((T(1) << width) - 1);
    return (field & mask) << lo;
}

/** Sign-extend the low @p width bits of @p value to 64 bits. */
constexpr s64
sext(u64 value, unsigned width)
{
    const unsigned shift = 64 - width;
    return static_cast<s64>(value << shift) >> shift;
}

/** True if @p value is a power of two (zero excluded). */
constexpr bool
isPow2(u64 value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** floor(log2(value)) for value >= 1; exact log2 for powers of two. */
constexpr unsigned
log2i(u64 value)
{
    return static_cast<unsigned>(std::bit_width(value) - 1);
}

/** Round @p value up to the next multiple of pow2 @p align. */
constexpr u64
roundUp(u64 value, u64 align)
{
    return (value + align - 1) & ~(align - 1);
}

/** Round @p value down to a multiple of pow2 @p align. */
constexpr u64
roundDown(u64 value, u64 align)
{
    return value & ~(align - 1);
}

/**
 * Double-to-int32 conversion with defined behaviour on every input
 * (the plain C++ cast is undefined outside [INT32_MIN, INT32_MAX]):
 * out-of-range values saturate, NaN converts to zero. Both the timing
 * frontend and the architectural reference interpreter use this, so
 * fcvtwd results are comparable bit-for-bit.
 */
inline s32
f64ToS32(double value)
{
    if (std::isnan(value))
        return 0;
    if (value >= 2147483647.0)
        return 2147483647;
    if (value <= -2147483648.0)
        return -2147483647 - 1;
    return static_cast<s32>(value);
}

/** @p x with its quiet bit set, as an FPU returns a NaN operand. */
template <typename F>
inline F
quietNan(F x)
{
    static_assert(sizeof(F) == 4 || sizeof(F) == 8);
    if constexpr (sizeof(F) == 4)
        return std::bit_cast<F>(std::bit_cast<u32>(x) | 0x0040'0000u);
    else
        return std::bit_cast<F>(std::bit_cast<u64>(x) |
                                0x0008'0000'0000'0000ull);
}

/**
 * @p result of an FP operation on @p operands, with the NaN it returns
 * pinned down: the first NaN operand, quieted (the x86 SSE order), or
 * @p result if no operand is a NaN. C++ leaves a NaN result's payload
 * to the compiler, which may commute `a + b`, so without this two
 * builds, or the timing frontend and the reference interpreter, could
 * return different NaNs for the same operands.
 */
template <typename F>
inline F
nanFirst(F result, std::initializer_list<F> operands)
{
    for (const F x : operands)
        if (std::isnan(x))
            return quietNan(x);
    return result;
}

/**
 * Deterministic 32-bit scrambling hash (finalizer of MurmurHash3).
 *
 * Used to pick a member cache inside an interest-group set; the paper
 * requires a completely deterministic function of the address that
 * utilizes all caches of the set uniformly.
 */
constexpr u32
scramble32(u32 x)
{
    x ^= x >> 16;
    x *= 0x85ebca6bu;
    x ^= x >> 13;
    x *= 0xc2b2ae35u;
    x ^= x >> 16;
    return x;
}

} // namespace cyclops

#endif // CYCLOPS_COMMON_BITOPS_H
