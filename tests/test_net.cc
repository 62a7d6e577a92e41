/**
 * @file
 * Multi-chip interconnect tests: coordinates, dimension-order routing
 * (mesh and torus shortest way), latency arithmetic, link contention,
 * segmentation of large messages, and the host link.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "net/topology.h"

using namespace cyclops;
using namespace cyclops::net;

TEST(Net, CoordinateRoundTrip)
{
    NetConfig cfg;
    cfg.dimX = 4;
    cfg.dimY = 3;
    cfg.dimZ = 2;
    Topology fabric(cfg);
    for (u32 chip = 0; chip < cfg.numChips(); ++chip)
        EXPECT_EQ(fabric.chipAt(fabric.coordOf(chip)), chip);
}

TEST(Net, DimensionOrderRouting)
{
    NetConfig cfg;
    cfg.dimX = cfg.dimY = cfg.dimZ = 4;
    cfg.torus = false;
    Topology fabric(cfg);
    const u32 src = fabric.chipAt({0, 0, 0});
    const u32 dst = fabric.chipAt({2, 1, 3});
    const auto path = fabric.route(src, dst);
    ASSERT_EQ(path.size(), 6u); // 2 + 1 + 3 hops
    // X first, then Y, then Z.
    EXPECT_EQ(path[0].second, Dir::XPlus);
    EXPECT_EQ(path[1].second, Dir::XPlus);
    EXPECT_EQ(path[2].second, Dir::YPlus);
    EXPECT_EQ(path[3].second, Dir::ZPlus);
}

TEST(Net, TorusTakesTheShortWay)
{
    NetConfig cfg;
    cfg.dimX = 8;
    cfg.dimY = cfg.dimZ = 1;
    Topology fabric(cfg);
    // 0 -> 7 is one hop backwards around the ring.
    EXPECT_EQ(fabric.hops(0, 7), 1u);
    EXPECT_EQ(fabric.route(0, 7)[0].second, Dir::XMinus);
    EXPECT_EQ(fabric.hops(0, 4), 4u); // tie: either way is 4

    cfg.torus = false;
    Topology mesh(cfg);
    EXPECT_EQ(mesh.hops(0, 7), 7u);
}

TEST(Net, UncontendedLatency)
{
    NetConfig cfg;
    Topology fabric(cfg);
    // 1 hop, 64 bytes at 2 bytes/cycle: 5 + 32.
    const u32 a = fabric.chipAt({0, 0, 0});
    const u32 b = fabric.chipAt({1, 0, 0});
    EXPECT_EQ(fabric.uncontendedLatency(a, b, 64), 37u);
    EXPECT_EQ(fabric.send(0, a, b, 64), 37u);
}

TEST(Net, LinkContentionSerializes)
{
    NetConfig cfg;
    Topology fabric(cfg);
    const u32 a = fabric.chipAt({0, 0, 0});
    const u32 b = fabric.chipAt({1, 0, 0});
    const Cycle first = fabric.send(0, a, b, 256);
    const Cycle second = fabric.send(0, a, b, 256);
    EXPECT_GT(second, first);
    EXPECT_GE(second - first, 128u); // one serialization time apart
}

TEST(Net, DisjointPathsDoNotInterfere)
{
    NetConfig cfg;
    Topology fabric(cfg);
    const Cycle ab = fabric.send(0, fabric.chipAt({0, 0, 0}),
                                 fabric.chipAt({1, 0, 0}), 128);
    const Cycle cd = fabric.send(0, fabric.chipAt({0, 1, 0}),
                                 fabric.chipAt({1, 1, 0}), 128);
    EXPECT_EQ(ab, cd);
}

TEST(Net, LargeMessagesPipelinePackets)
{
    NetConfig cfg;
    cfg.dimX = 4;
    cfg.torus = false;
    Topology fabric(cfg);
    const u32 a = fabric.chipAt({0, 0, 0});
    const u32 d = fabric.chipAt({3, 0, 0});
    // 1 KB over 3 hops: cut-through + segmentation beats
    // store-and-forward (3 x 512) decisively.
    const Cycle t = fabric.send(0, a, d, 1024);
    EXPECT_LT(t, 3 * 512u);
    EXPECT_GE(t, 512u); // cannot beat pure serialization
}

TEST(Net, PeakIoBandwidthMatchesPaper)
{
    // Six in + six out 16-bit 500 MHz links = 12 GB/s per chip.
    NetConfig cfg;
    const double perLink =
        double(cfg.linkBytesPerCycle) * double(cfg.clockHz);
    EXPECT_NEAR(perLink * 12 / 1e9, 12.0, 0.01);
}

TEST(Net, RejectsBadEndpoints)
{
    EXPECT_DEATH(
        {
            setLogLevel(LogLevel::Quiet);
            Topology fabric;
            fabric.send(0, 0, 99, 64);
        },
        "");
}

namespace
{

/** Hop count a dimension contributes under DOR. */
u32
dimHops(u32 from, u32 to, u32 dim, bool torus)
{
    if (!torus)
        return to >= from ? to - from : from - to;
    const u32 fwd = to >= from ? to - from : to + dim - from;
    const u32 bwd = dim - fwd;
    return fwd == 0 ? 0 : (fwd <= bwd ? fwd : bwd);
}

} // namespace

TEST(Net, HopCountsExhaustiveMeshVsTorus)
{
    // A mixed-extent grid with a degenerate 1-wide Z dimension.
    NetConfig cfg;
    cfg.dimX = 4;
    cfg.dimY = 3;
    cfg.dimZ = 1;
    for (bool torus : {false, true}) {
        cfg.torus = torus;
        Topology fabric(cfg);
        for (u32 s = 0; s < cfg.numChips(); ++s) {
            for (u32 d = 0; d < cfg.numChips(); ++d) {
                const Coord cs = fabric.coordOf(s);
                const Coord cd = fabric.coordOf(d);
                const u32 expected =
                    dimHops(cs.x, cd.x, cfg.dimX, torus) +
                    dimHops(cs.y, cd.y, cfg.dimY, torus) +
                    dimHops(cs.z, cd.z, cfg.dimZ, torus);
                EXPECT_EQ(fabric.hops(s, d), expected)
                    << (torus ? "torus " : "mesh ") << s << "->" << d;
                EXPECT_EQ(fabric.route(s, d).size(), expected);
            }
        }
    }
}

TEST(Net, TorusWraparoundBeatsMeshOnFarPairs)
{
    NetConfig cfg;
    cfg.dimX = 8;
    cfg.dimY = 4;
    cfg.dimZ = 2;
    Topology torus(cfg);
    cfg.torus = false;
    Topology mesh(cfg);
    const u32 s = torus.chipAt({0, 0, 0});
    const u32 d = torus.chipAt({7, 3, 1});
    EXPECT_EQ(mesh.hops(s, d), 7u + 3 + 1);
    EXPECT_EQ(torus.hops(s, d), 1u + 1 + 1); // all wraparound
    // In a 2-wide dimension both ways are one hop.
    EXPECT_EQ(torus.hops(torus.chipAt({0, 0, 0}),
                         torus.chipAt({0, 0, 1})),
              1u);
}

TEST(Net, DegenerateOneWideDimensionsNeverRoute)
{
    NetConfig cfg;
    cfg.dimX = 1;
    cfg.dimY = 1;
    cfg.dimZ = 5;
    cfg.torus = true;
    Topology fabric(cfg);
    EXPECT_EQ(fabric.hops(0, 0), 0u);
    EXPECT_TRUE(fabric.route(0, 0).empty());
    for (u32 d = 1; d < 5; ++d) {
        for (const auto &[chip, dir] : fabric.route(0, d)) {
            (void)chip;
            EXPECT_TRUE(dir == Dir::ZPlus || dir == Dir::ZMinus);
        }
    }
    // Around the 5-ring: 0 -> 3 is two hops backwards.
    EXPECT_EQ(fabric.hops(0, 3), 2u);
    EXPECT_EQ(fabric.route(0, 3)[0].second, Dir::ZMinus);
}

TEST(Topology, HopsMatchesRouteLength)
{
    // hops() counts the DOR walk without building it: it must equal
    // the length of route() for every pair of the shapes the fabric's
    // zero-load test covers, mesh and torus, 1-wide dimensions too.
    const u32 shapes[][4] = {
        {2, 2, 2, 1}, {4, 4, 4, 1}, {3, 2, 1, 0},
        {4, 1, 1, 1}, {1, 1, 4, 0}, {2, 2, 1, 1},
    };
    for (const auto &sh : shapes) {
        NetConfig cfg;
        cfg.dimX = sh[0];
        cfg.dimY = sh[1];
        cfg.dimZ = sh[2];
        cfg.torus = sh[3] != 0;
        const Topology topo(cfg);
        for (u32 s = 0; s < cfg.numChips(); ++s)
            for (u32 d = 0; d < cfg.numChips(); ++d)
                ASSERT_EQ(topo.hops(s, d), topo.route(s, d).size())
                    << sh[0] << "x" << sh[1] << "x" << sh[2]
                    << (cfg.torus ? " torus " : " mesh ") << s << "->"
                    << d;
    }
}
