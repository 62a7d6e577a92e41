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

TEST(Parse, LinksAndDimensions)
{
    u32 src = 7, dst = 7, value = 7;
    EXPECT_TRUE(parseLink("0->1", &src, &dst));
    EXPECT_EQ(src, 0u);
    EXPECT_EQ(dst, 1u);
    EXPECT_TRUE(parseLink("3->2=20000", &src, &dst, &value));
    EXPECT_EQ(src, 3u);
    EXPECT_EQ(dst, 2u);
    EXPECT_EQ(value, 20000u);
    for (const char *bad : {"", "0", "0->", "->1", "0-1", "0->1=2",
                            "-1->1", "0->4294967296", "0->1 "}) {
        src = dst = 7;
        EXPECT_FALSE(parseLink(bad, &src, &dst)) << "'" << bad << "'";
        EXPECT_EQ(src, 7u);
    }
    for (const char *bad : {"0->1", "0->1=", "0->1=x", "0=1->2",
                            "0->1=4294967296"})
        EXPECT_FALSE(parseLink(bad, &src, &dst, &value)) << bad;

    u32 dims[3] = {9, 9, 9};
    EXPECT_TRUE(parseDims("2,2,1", dims));
    EXPECT_EQ(dims[0], 2u);
    EXPECT_EQ(dims[1], 2u);
    EXPECT_EQ(dims[2], 1u);
    EXPECT_TRUE(parseDims("4x1x3", dims));
    EXPECT_EQ(dims[0], 4u);
    EXPECT_EQ(dims[2], 3u);
    for (const char *bad : {"", "2,2", "2,2,1,1", "2,0,1", "2,2x1",
                            "2,,1", "a,b,c", "2x2", "2,2,4294967296"}) {
        EXPECT_FALSE(parseDims(bad, dims)) << "'" << bad << "'";
        EXPECT_EQ(dims[0], 4u);
    }
}
