/**
 * @file
 * The strict numeric option parser shared by the tools and benches.
 */

#include <gtest/gtest.h>

#include "common/parse.h"

using namespace cyclops;

TEST(Parse, AcceptsWholeNonnegativeIntegers)
{
    u64 v = 0;
    EXPECT_TRUE(parseU64("0", &v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("200", &v));
    EXPECT_EQ(v, 200u);
    EXPECT_TRUE(parseU64("0x10", &v));
    EXPECT_EQ(v, 16u);
    EXPECT_TRUE(parseU64("18446744073709551615", &v));
    EXPECT_EQ(v, ~u64(0));
    u32 w = 0;
    EXPECT_TRUE(parseU32("4294967295", &w));
    EXPECT_EQ(w, ~u32(0));
}

TEST(Parse, RejectsMalformedInputAndLeavesOutputAlone)
{
    for (const char *bad : {"", "abc", "12x", "x12", "-1", "+1", "1 2",
                            "0x", "1.5", "18446744073709551616"}) {
        u64 v = 7;
        EXPECT_FALSE(parseU64(bad, &v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7u) << "'" << bad << "'";
        u32 w = 7;
        EXPECT_FALSE(parseU32(bad, &w)) << "'" << bad << "'";
        EXPECT_EQ(w, 7u) << "'" << bad << "'";
    }
    u64 v = 0;
    EXPECT_FALSE(parseU64(nullptr, &v));
}

TEST(Parse, U32RejectsValuesAboveItsRange)
{
    u32 w = 7;
    EXPECT_FALSE(parseU32("4294967296", &w));
    EXPECT_EQ(w, 7u);
}
