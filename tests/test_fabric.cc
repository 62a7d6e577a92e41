/**
 * @file
 * Lock-down tests for the cycle-driven net::Fabric and the multi-chip
 * arch::System built on it.
 *
 * The central identities: (1) at zero load the fabric's delivery
 * cycle equals Topology::uncontendedLatency exactly — the analytic
 * model and the timing component may never drift apart; (2) under any
 * injection sequence the fabric and Topology::send produce the same
 * cycles (they share the reservation math byte for byte); (3) flits
 * are conserved: injected == delivered + in flight, always; (4) the
 * multi-chip workloads verify and leave the fabric empty.
 */

#include <algorithm>
#include <gtest/gtest.h>

#include "arch/interest_group.h"
#include "arch/system.h"
#include "arch/thread_unit.h"
#include "common/log.h"
#include "exec/engine.h"
#include "isa/builder.h"
#include "net/fabric.h"
#include "workloads/multichip.h"

using namespace cyclops;
using namespace cyclops::net;
using workloads::MultiChipConfig;
using workloads::MultiChipResult;

namespace
{

NetConfig
shape(u32 x, u32 y, u32 z, bool torus)
{
    NetConfig net;
    net.dimX = x;
    net.dimY = y;
    net.dimZ = z;
    net.torus = torus;
    return net;
}

} // namespace

TEST(Fabric, ZeroLoadEqualsAnalyticExactly)
{
    // Exhaustive over all pairs of several shapes — including 1-wide
    // dimensions — and several message sizes: an idle fabric must
    // reproduce the analytic uncontendedLatency to the cycle. One
    // fabric per shape: each case is injected once the previous one
    // has delivered and retired, when every link it reserved is free
    // again, so the fabric is back at zero load.
    const NetConfig shapes[] = {
        shape(2, 2, 2, true),  shape(4, 4, 4, true),
        shape(3, 2, 1, false), shape(4, 1, 1, true),
        shape(1, 1, 4, false), shape(2, 2, 1, true),
    };
    const u32 sizes[] = {8, 16, 64, 256, 300, 1024};
    for (const NetConfig &net : shapes) {
        const Topology topo(net);
        const u32 last = net.numChips() - 1;
        {
            Fabric fresh(FabricConfig{net});
            EXPECT_EQ(fresh.inject(0, 0, last, 1024).delivered,
                      topo.uncontendedLatency(0, last, 1024));
        }
        Fabric fabric(FabricConfig{net});
        Cycle now = 0;
        for (u32 s = 0; s < net.numChips(); ++s) {
            for (u32 d = 0; d < net.numChips(); ++d) {
                if (s == d)
                    continue;
                for (u32 bytes : sizes) {
                    const Delivery del = fabric.inject(now, s, d, bytes);
                    ASSERT_EQ(del.delivered - now,
                              topo.uncontendedLatency(s, d, bytes))
                        << net.dimX << "x" << net.dimY << "x" << net.dimZ
                        << (net.torus ? " torus " : " mesh ") << s
                        << "->" << d << " " << bytes << "B at " << now;
                    now = del.delivered;
                    fabric.advance(now);
                    ASSERT_EQ(fabric.flitsInFlight(), 0u);
                }
            }
        }
        EXPECT_EQ(fabric.queueCycles(), 0u);
    }
}

namespace
{

/** Flits of one transmission attempt of @p bytes: one per
 *  linkBytesPerCycle chunk of every maxPacketBytes packet. */
u64
attemptFlits(const NetConfig &net, u32 bytes)
{
    u64 flits = 0;
    for (u32 left = bytes; left > 0;) {
        const u32 packet = std::min(left, net.maxPacketBytes);
        flits += (packet + net.linkBytesPerCycle - 1) / net.linkBytesPerCycle;
        left -= packet;
    }
    return flits;
}

/**
 * Drive @p fc's fabric with seeded bursts and check the flit ledger
 * after every advance(at) against a brute-force replay of the returned
 * Deliverys: a message's final attempt retires, into delivered when
 * ok, at the first advance past its delivery cycle made after it was
 * injected. Corrupted attempts carry no returned cycle (they end
 * before the message's final one), so the dropped ledger is bracketed
 * until the end, where it is exact. Deliveries land far beyond the
 * ledger ring (4 KB messages behind backlogged links), advances jump
 * past it, repeat and go backward, and injections land behind the
 * last advance, so every path of the ledger is taken.
 */
u32
checkLedgerAgainstDeliveries(const FabricConfig &fc)
{
    const NetConfig &net = fc.net;
    {
        // A drain before any advance retires the whole ledger too.
        Fabric fresh(fc);
        fresh.inject(0, 0, net.numChips() - 1, 64);
        fresh.drain();
        EXPECT_EQ(fresh.flitsInFlight(), 0u);
        EXPECT_EQ(fresh.flitsDelivered() + fresh.flitsDropped(),
                  fresh.flitsInjected());
    }
    Fabric fabric(fc);
    struct Sent
    {
        Delivery d;
        u64 flits = 0;
        bool retired = false;
    };
    std::vector<Sent> sent;
    u64 seed = 0x452821E638D01377ull;
    auto next = [&seed] {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        return seed >> 17;
    };
    auto check = [&](Cycle at, bool drained) {
        u64 delivered = 0, droppedLo = 0, droppedAll = 0, injected = 0;
        for (Sent &m : sent) {
            if (!m.retired && m.d.delivered <= at)
                m.retired = true;
            const u64 drops = m.d.retries + (m.d.ok ? 0 : 1);
            injected += (m.d.retries + 1) * m.flits;
            droppedAll += drops * m.flits;
            if (m.retired) {
                delivered += m.d.ok ? m.flits : 0;
                droppedLo += drops * m.flits;
            }
        }
        ASSERT_EQ(fabric.flitsInjected(), injected) << "at " << at;
        ASSERT_EQ(fabric.flitsDelivered(), delivered) << "at " << at;
        ASSERT_GE(fabric.flitsDropped(), droppedLo) << "at " << at;
        ASSERT_LE(fabric.flitsDropped(), droppedAll) << "at " << at;
        if (drained || droppedAll == 0) {
            ASSERT_EQ(fabric.flitsDelivered() + fabric.flitsDropped(),
                      delivered + droppedLo) << "at " << at;
        }
    };

    Cycle now = 0;
    Cycle at = 0;
    u32 far = 0;  // delivered beyond a 1024-cycle horizon
    u32 late = 0; // delivered at or before the last advance point
    for (u32 round = 0; round < 400; ++round) {
        const u32 burst = 1 + u32(next() % 6);
        for (u32 i = 0; i < burst; ++i) {
            const u32 s = u32(next() % net.numChips());
            u32 d = u32(next() % net.numChips());
            if (d == s)
                d = (d + 1) % net.numChips();
            const u32 bytes = next() % 8 == 0 ? 4096 : 8 + u32(next() % 600);
            // Now and then inject behind the last advance point.
            const Cycle t = next() % 16 == 0 && now > 64 ? now - 64 : now;
            sent.push_back({fabric.inject(t, s, d, bytes),
                            attemptFlits(net, bytes)});
            const Cycle when = sent.back().d.delivered;
            far += when > at + 1024;
            late += when <= at;
        }
        switch (next() % 8) {
        case 0: at += 3000; break;             // past the ring horizon
        case 1: break;                         // repeat the last point
        case 2: at = at > 40 ? at - 40 : 0; break; // go backward
        default: at += next() % 24; break;
        }
        now = std::max(now, at) + next() % 8;
        fabric.advance(at);
        check(at, false);
        if (::testing::Test::HasFatalFailure())
            return 0;
    }
    EXPECT_GT(far, 0u);
    EXPECT_GT(late, 0u);
    fabric.drain();
    check(kCycleNever, true);
    EXPECT_EQ(fabric.flitsInFlight(), 0u);

    // After a drain the fabric keeps accepting and retiring traffic.
    const u32 last = net.numChips() - 1;
    sent.push_back({fabric.inject(now, 0, last, 64), attemptFlits(net, 64)});
    fabric.advance(sent.back().d.delivered - 1);
    check(sent.back().d.delivered - 1, false);
    fabric.advance(sent.back().d.delivered);
    check(sent.back().d.delivered, false);
    EXPECT_EQ(fabric.flitsInFlight(), 0u);
    return u32(std::count_if(sent.begin(), sent.end(),
                             [](const Sent &m) { return !m.d.ok; }));
}

} // namespace

TEST(Fabric, LedgerMatchesDeliveriesHealthy)
{
    EXPECT_EQ(checkLedgerAgainstDeliveries(
                  FabricConfig{shape(4, 2, 2, true)}),
              0u);
}

TEST(Fabric, LedgerMatchesDeliveriesFlakyLink)
{
    FabricConfig fc{shape(4, 2, 2, true)};
    LinkFault flaky;
    flaky.src = 0;
    flaky.dst = 1;
    flaky.kind = LinkFaultKind::Flaky;
    flaky.flakyPpm = 200'000;
    fc.faults.links = {flaky};
    fc.maxRetries = 1; // some messages exhaust their retries
    EXPECT_GT(checkLedgerAgainstDeliveries(fc), 0u);
}

TEST(Fabric, MatchesTopologySendUnderContention)
{
    // The fabric shares the reservation math with Topology::send, so
    // an identical injection sequence must produce identical delivery
    // cycles — including queueing, segmentation and far-apart pairs.
    const NetConfig net = shape(4, 4, 2, true);
    FabricConfig fc;
    fc.net = net;
    Fabric fabric(fc);
    Topology topo(net);

    u64 seed = 0x243F6A8885A308D3ull;
    Cycle now = 0;
    for (u32 i = 0; i < 500; ++i) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        const u32 s = u32(seed >> 33) % net.numChips();
        u32 d = u32(seed >> 13) % net.numChips();
        if (d == s)
            d = (d + 1) % net.numChips();
        const u32 bytes = 8 + u32(seed % 600);
        now += seed % 7;
        EXPECT_EQ(fabric.inject(now, s, d, bytes).delivered,
                  topo.send(now, s, d, bytes))
            << "message " << i;
    }
    EXPECT_EQ(fabric.messages(), topo.stats().counterValue("net.messages"));
    EXPECT_EQ(fabric.bytesMoved(), topo.bytesMoved());
    EXPECT_EQ(fabric.queueCycles(),
              topo.stats().counterValue("net.queueCycles"));
}

TEST(Fabric, PerPathFifoOrdering)
{
    // Messages sharing a (src, dst) route deliver in injection order
    // with strictly increasing cycles — the property arch::System's
    // payload-before-flag protocol rests on.
    Fabric fabric(FabricConfig{shape(4, 4, 4, true)});
    Cycle last = 0;
    for (u32 i = 0; i < 64; ++i) {
        const Delivery d = fabric.inject(i / 4, 0, 3, 8 + 8 * (i % 5));
        EXPECT_GT(d.delivered, last) << "message " << i;
        EXPECT_GE(d.accepted, (i / 4) + 1);
        last = d.delivered;
    }
}

TEST(Fabric, BackpressurePacesToLinkBandwidth)
{
    // Saturating one path: after warmup, consecutive accepted cycles
    // are exactly serialization time apart — the source cannot push
    // more than linkBytesPerCycle (16 bits/cycle: the per-link share
    // of the paper's 12 GB/s I/O budget) into its first link.
    FabricConfig fc;
    fc.net = shape(2, 2, 2, true);
    Fabric fabric(fc);
    const u32 bytes = 64;
    const Cycle serialization = bytes / fc.net.linkBytesPerCycle;
    Cycle prev = 0;
    for (u32 i = 0; i < 32; ++i) {
        const Delivery d = fabric.inject(0, 0, 1, bytes);
        if (i > 0) {
            EXPECT_EQ(d.accepted - prev, serialization) << "message " << i;
        }
        prev = d.accepted;
    }
    // 1 GB/s per link direction x 12 links = the 12 GB/s chip budget.
    const double perLink =
        double(fc.net.linkBytesPerCycle) * double(fc.net.clockHz);
    EXPECT_NEAR(perLink * 12 / 1e9, 12.0, 0.01);
}

TEST(Fabric, FlitConservation)
{
    Fabric fabric(FabricConfig{shape(4, 2, 2, true)});
    u64 seed = 0xB7E151628AED2A6Bull;
    std::vector<Cycle> deliveries;
    for (u32 i = 0; i < 200; ++i) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        const u32 s = u32(seed >> 33) % 16;
        u32 d = u32(seed >> 13) % 16;
        if (d == s)
            d = (d + 1) % 16;
        deliveries.push_back(
            fabric.inject(i, s, d, 8 + u32(seed % 500)).delivered);
        EXPECT_EQ(fabric.flitsInjected(),
                  fabric.flitsDelivered() + fabric.flitsInFlight());
    }
    // Advance in steps: the invariant holds at every point, and flits
    // retire monotonically.
    std::sort(deliveries.begin(), deliveries.end());
    u64 retired = 0;
    for (size_t i = 0; i < deliveries.size(); i += 20) {
        fabric.advance(deliveries[i]);
        EXPECT_EQ(fabric.flitsInjected(),
                  fabric.flitsDelivered() + fabric.flitsInFlight());
        EXPECT_GE(fabric.flitsDelivered(), retired);
        retired = fabric.flitsDelivered();
    }
    fabric.drain();
    EXPECT_EQ(fabric.flitsInFlight(), 0u);
    EXPECT_EQ(fabric.flitsInjected(), fabric.flitsDelivered());
    EXPECT_GT(fabric.flitsInjected(), 0u);
}

TEST(Fabric, RejectsBadEndpointsAndSelfSend)
{
    Fabric fabric(FabricConfig{shape(2, 2, 1, true)});
    EXPECT_DEATH(
        {
            setLogLevel(LogLevel::Quiet);
            fabric.inject(0, 0, 9, 64);
        },
        "");
    EXPECT_DEATH(
        {
            setLogLevel(LogLevel::Quiet);
            fabric.inject(0, 2, 2, 64);
        },
        "");
    EXPECT_DEATH(
        {
            setLogLevel(LogLevel::Quiet);
            fabric.inject(0, 0, 1, 0);
        },
        "");
}

// --- arch::System on the fabric ---------------------------------------------

TEST(Fabric, SystemConfigChecksWindow)
{
    MultiChipConfig mc;
    arch::SystemConfig sc = mc.systemConfig();
    EXPECT_EQ(sc.check(), "");
    EXPECT_EQ(sc.windowBaseOf(), sc.chip.memBytes() / 2);

    arch::SystemConfig bad = sc;
    bad.windowBase = 12345; // not 128 KB aligned
    EXPECT_NE(bad.check(), "");

    bad = sc;
    bad.windowBase = sc.chip.memBytes() - arch::kRemoteWindowBytes / 2;
    EXPECT_NE(bad.check(), ""); // window exceeds memory

    // A full-size 16 MB chip defaults the window to 8 MB — exactly
    // the remote address bit: the configuration must demand an
    // explicit base below it.
    arch::SystemConfig big;
    big.fabric.net = shape(2, 1, 1, true);
    big.chip.bankBytes = 1024 * 1024; // 16 banks x 1 MB = 16 MB
    EXPECT_NE(big.check(), "");
    big.windowBase = 0x400000;
    EXPECT_EQ(big.check(), "");
}

TEST(Fabric, RemoteWindowEncodingRoundTrips)
{
    for (u32 chip : {0u, 1u, 17u, 63u}) {
        for (PhysAddr off : {0u, 8u, 0x1FFF8u}) {
            const Addr ea = arch::remoteEa(arch::kIgDefault, chip, off);
            EXPECT_TRUE(arch::isRemoteEa(ea));
            EXPECT_EQ(arch::remoteChipOf(ea), chip);
            EXPECT_EQ(arch::remoteOffsetOf(ea), off);
        }
    }
    // Local EAs below the window bit are never remote.
    EXPECT_FALSE(arch::isRemoteEa(arch::igAddr(arch::kIgDefault, 0x7FFF8)));
}

TEST(Fabric, GuestRemoteAccessOutOfRangeThrows)
{
    MultiChipConfig mc;
    mc.dimX = 2;
    mc.dimY = mc.dimZ = 1;
    auto runOne = [&](Addr ea) {
        arch::System sys(mc.systemConfig());
        exec::GuestEngine engine(sys.chip(0));
        struct Body
        {
            static exec::GuestTask
            run(exec::GuestCtx &ctx, Addr ea)
            {
                co_await ctx.load(ea);
            }
        };
        engine.spawn(1,
                     [&](exec::GuestCtx &ctx) { return Body::run(ctx, ea); });
        sys.run();
    };
    // Out-of-range destination chip, and a chip addressing itself
    // through the remote window: both are diagnosable guest errors.
    EXPECT_THROW(runOne(arch::remoteEa(arch::kIgDefault, 5, 0)),
                 GuestError);
    EXPECT_THROW(runOne(arch::remoteEa(arch::kIgDefault, 0, 0)),
                 GuestError);
}

namespace
{

/** The kinds of remote reference the error-text tests issue. */
enum class RemoteOp { Load, Store, Atomic };

/** First GuestError text of one remote reference by chip 0 thread 0
 *  of a 2x1x1 system through the ISA frontend ("" if none). */
std::string
isaRemoteError(RemoteOp op, Addr ea, u8 bytes)
{
    MultiChipConfig mc;
    mc.dimX = 2;
    mc.dimY = mc.dimZ = 1;
    arch::System sys(mc.systemConfig());
    isa::ProgramBuilder b;
    b.li(10, ea);
    b.li(11, 1);
    switch (op) {
      case RemoteOp::Load:
        bytes == 8 ? b.ld(4, 0, 10) : b.lw(4, 0, 10);
        break;
      case RemoteOp::Store:
        bytes == 8 ? b.sd(4, 0, 10) : b.sw(4, 0, 10);
        break;
      case RemoteOp::Atomic:
        b.amoadd(5, 10, 11);
        break;
    }
    b.halt();
    sys.loadProgramAll(b.finish());
    arch::Chip &chip = sys.chip(0);
    chip.setUnit(0, std::make_unique<arch::ThreadUnit>(0, chip, 0));
    chip.activate(0);
    try {
        sys.run();
    } catch (const GuestError &e) {
        return e.what();
    }
    return "";
}

/** The same reference issued by a guest coroutine on chip 0. */
std::string
guestRemoteError(RemoteOp op, Addr ea, u8 bytes)
{
    MultiChipConfig mc;
    mc.dimX = 2;
    mc.dimY = mc.dimZ = 1;
    arch::System sys(mc.systemConfig());
    exec::GuestEngine engine(sys.chip(0));
    struct Body
    {
        static exec::GuestTask
        run(exec::GuestCtx &ctx, RemoteOp op, Addr ea, u8 bytes)
        {
            switch (op) {
              case RemoteOp::Load:
                co_await ctx.load(ea, bytes);
                break;
              case RemoteOp::Store:
                co_await ctx.store(ea, 1, bytes);
                break;
              case RemoteOp::Atomic:
                co_await ctx.amoadd(ea, 1);
                break;
            }
            co_await ctx.sync();
        }
    };
    engine.spawn(1, [&](exec::GuestCtx &ctx) {
        return Body::run(ctx, op, ea, bytes);
    });
    try {
        sys.run();
    } catch (const GuestError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Fabric, RemoteErrorTextsMatchAcrossFrontends)
{
    // The first diagnostic of each malformed remote reference, pinned
    // word for word: both frontends decode remote references through
    // the same checks, in the same order.
    const Addr farChip = arch::remoteEa(arch::kIgDefault, 5, 0);
    const Addr selfChip = arch::remoteEa(arch::kIgDefault, 0, 0x40);
    const Addr misaligned = arch::remoteEa(arch::kIgDefault, 1, 0x104);
    const Addr peer = arch::remoteEa(arch::kIgDefault, 1, 0x100);
    struct Case
    {
        RemoteOp op;
        Addr ea;
        u8 bytes;
        std::string want;
    };
    const Case cases[] = {
        {RemoteOp::Load, farChip, 8,
         strprintf("remote window addresses chip 5 of a 2-chip system "
                   "(chip 0 thread 0, ea 0x%08x)", farChip)},
        {RemoteOp::Store, farChip, 8,
         strprintf("remote window addresses chip 5 of a 2-chip system "
                   "(chip 0 thread 0, ea 0x%08x)", farChip)},
        {RemoteOp::Load, selfChip, 4,
         strprintf("remote window targets the local chip 0 (thread 0, "
                   "ea 0x%08x)", selfChip)},
        {RemoteOp::Store, selfChip, 4,
         strprintf("remote window targets the local chip 0 (thread 0, "
                   "ea 0x%08x)", selfChip)},
        {RemoteOp::Load, misaligned, 8,
         strprintf("misaligned 8-byte remote access at 0x%08x (chip 0 "
                   "thread 0)", misaligned)},
        {RemoteOp::Store, misaligned, 8,
         strprintf("misaligned 8-byte remote access at 0x%08x (chip 0 "
                   "thread 0)", misaligned)},
        {RemoteOp::Atomic, peer, 4,
         strprintf("remote atomics are not supported (chip 0 thread 0, "
                   "ea 0x%08x)", peer)},
        {RemoteOp::Atomic, farChip, 4,
         strprintf("remote window addresses chip 5 of a 2-chip system "
                   "(chip 0 thread 0, ea 0x%08x)", farChip)},
        {RemoteOp::Atomic, misaligned + 2, 4,
         strprintf("misaligned 4-byte remote access at 0x%08x (chip 0 "
                   "thread 0)", misaligned + 2)},
    };
    for (const Case &c : cases) {
        EXPECT_EQ(isaRemoteError(c.op, c.ea, c.bytes), c.want);
        EXPECT_EQ(guestRemoteError(c.op, c.ea, c.bytes), c.want);
    }
}

TEST(Fabric, RemoteReferenceSizeCheckedLikeLocal)
{
    // A remote reference gets the local path's size check: a size
    // other than 1, 2, 4 or 8 is a simulator bug, not a guest error.
    MultiChipConfig mc;
    mc.dimX = 2;
    mc.dimY = mc.dimZ = 1;
    const Addr ea = arch::remoteEa(arch::kIgDefault, 1, 0x102);
    EXPECT_DEATH(
        {
            arch::System sys(mc.systemConfig());
            sys.chip(0).memRead(ea, 0, 0);
        },
        "memory access of 0 bytes");
    EXPECT_DEATH(
        {
            arch::System sys(mc.systemConfig());
            sys.chip(0).memRead(ea, 3, 0);
        },
        "memory access of 3 bytes");
    EXPECT_DEATH(
        {
            arch::System sys(mc.systemConfig());
            sys.chip(0).memRead(arch::igAddr(arch::kIgDefault, 0x102), 3,
                                0);
        },
        "memory access of 3 bytes");
}

TEST(Fabric, UntimedRemoteWriteLandsDirectly)
{
    // Chip::memWrite and GuestCtx::pokeDouble take no simulated time:
    // on a remote-window address they write the target chip's window
    // at once, queue nothing, and leave the thread free to post timed
    // remote stores afterwards.
    MultiChipConfig mc;
    mc.dimX = 2;
    mc.dimY = mc.dimZ = 1;
    arch::System sys(mc.systemConfig());
    const PhysAddr base = sys.windowBase();
    sys.chip(0).memWrite(arch::remoteEa(arch::kIgDefault, 1, 0x10), 8,
                         0x1122334455667788ull, 0);
    EXPECT_EQ(sys.pendingStores(), 0u);
    u64 landed = 0;
    sys.chip(1).readPhys(base + 0x10, &landed, 8);
    EXPECT_EQ(landed, 0x1122334455667788ull);
    EXPECT_EQ(sys.chip(0).memRead(arch::remoteEa(arch::kIgDefault, 1,
                                                 0x10), 8, 0),
              0x1122334455667788ull);

    exec::GuestEngine engine(sys.chip(0));
    struct Body
    {
        static exec::GuestTask
        run(exec::GuestCtx &ctx)
        {
            ctx.pokeDouble(arch::remoteEa(arch::kIgDefault, 1, 0x20), 2.5);
            co_await ctx.store(arch::remoteEa(arch::kIgDefault, 1, 0x28),
                               7);
            co_await ctx.sync();
        }
    };
    engine.spawn(1, [](exec::GuestCtx &ctx) { return Body::run(ctx); });
    EXPECT_EQ(sys.run(), arch::RunExit::AllHalted);
    EXPECT_EQ(sys.pendingStores(), 0u);
    double poked = 0;
    sys.chip(1).readPhys(base + 0x20, &poked, 8);
    EXPECT_EQ(poked, 2.5);
    u64 stored = 0;
    sys.chip(1).readPhys(base + 0x28, &stored, 8);
    EXPECT_EQ(stored, 7u);
    // Only the timed store crossed the fabric.
    EXPECT_EQ(sys.fabric().messages(), 1u);
}

TEST(Fabric, PairCacheMatchesTopology)
{
    // inject() times every message from the per-pair record built at
    // construction: its hop count and zero-load latency must equal the
    // analytic model for every pair and message size.
    const NetConfig shapes[] = {shape(2, 2, 1, true), shape(4, 4, 4, true),
                                shape(3, 2, 1, false)};
    for (const NetConfig &net : shapes) {
        const Topology topo(net);
        const Fabric fabric(FabricConfig{net});
        for (u32 s = 0; s < net.numChips(); ++s) {
            for (u32 d = 0; d < net.numChips(); ++d) {
                ASSERT_EQ(fabric.pairHops(s, d), topo.hops(s, d));
                if (s == d)
                    continue;
                for (u32 bytes = 1; bytes <= 2 * net.maxPacketBytes;
                     ++bytes)
                    ASSERT_EQ(fabric.wireLatency(s, d, bytes),
                              topo.uncontendedLatency(s, d, bytes))
                        << net.dimX << "x" << net.dimY << "x" << net.dimZ
                        << " " << s << "->" << d << " " << bytes << "B";
            }
        }
    }
}

TEST(Fabric, ChipIdentitySprs)
{
    MultiChipConfig mc; // 2x2x1 default
    arch::System sys(mc.systemConfig());
    EXPECT_EQ(sys.numChips(), 4u);
    for (u32 c = 0; c < sys.numChips(); ++c) {
        EXPECT_EQ(sys.chip(c).readSpr(0, isa::kSprChipId), c);
        EXPECT_EQ(sys.chip(c).readSpr(0, isa::kSprNumChips), 4u);
    }
}

TEST(Fabric, HaloExchangeVerifiesAndDrains)
{
    MultiChipConfig mc;
    mc.dimX = 2;
    mc.dimY = 2;
    mc.dimZ = 1;
    mc.words = 16;
    mc.iters = 2;
    const MultiChipResult r = workloads::runHaloExchange(mc);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.messages, 0u);
    EXPECT_EQ(r.flitsInFlight, 0u);
    EXPECT_EQ(r.flitsInjected, r.flitsDelivered);
}

TEST(Fabric, HaloExchangeOnMeshAndDegenerateShapes)
{
    // Mesh edges and 1-wide dimensions drop faces without deadlock;
    // extent-2 torus dimensions send both faces to the same neighbor.
    for (bool torus : {false, true}) {
        for (u32 z : {1u, 2u}) {
            MultiChipConfig mc;
            mc.dimX = 3;
            mc.dimY = 2;
            mc.dimZ = z;
            mc.torus = torus;
            mc.words = 8;
            mc.iters = 1;
            mc.threads = 4;
            const MultiChipResult r = workloads::runHaloExchange(mc);
            EXPECT_TRUE(r.verified)
                << "3x2x" << z << (torus ? " torus" : " mesh");
            EXPECT_EQ(r.flitsInFlight, 0u);
        }
    }
}

TEST(Fabric, DistributedStreamVerifies)
{
    MultiChipConfig mc;
    mc.dimX = 4;
    mc.dimY = 1;
    mc.dimZ = 1;
    mc.words = 32;
    const MultiChipResult r = workloads::runDistributedStream(mc);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.flitsInFlight, 0u);
    // Every chip pulls its slice from the +x neighbor: one request and
    // one response per load batch element.
    EXPECT_EQ(r.messages, u64(2) * 4 * 32);

    // A single chip degenerates to the local path: no fabric traffic.
    MultiChipConfig solo = mc;
    solo.dimX = 1;
    const MultiChipResult rs = workloads::runDistributedStream(solo);
    EXPECT_TRUE(rs.verified);
    EXPECT_EQ(rs.messages, 0u);
}

TEST(Fabric, RemoteLoadZeroLoadLatencyMatchesAnalytic)
{
    // One guest issues one remote load on an otherwise idle system:
    // the end-to-end charge must contain the exact analytic
    // request + response round trip (queueWait == 0 at zero load, so
    // any deviation would shift the run length cycle for cycle).
    MultiChipConfig mc;
    mc.dimX = 2;
    mc.dimY = mc.dimZ = 1;
    mc.threads = 1;
    mc.words = 1;

    const arch::SystemConfig sc = mc.systemConfig();
    const Topology topo(sc.fabric.net);
    const Cycle roundTrip =
        topo.uncontendedLatency(0, 1, sc.fabric.reqHeaderBytes) +
        topo.uncontendedLatency(1, 0, sc.fabric.respHeaderBytes + 8);

    auto cyclesWithLoads = [&](u32 loads) {
        arch::System sys(sc);
        exec::GuestEngine engine(sys.chip(0));
        struct Body
        {
            static exec::GuestTask
            run(exec::GuestCtx &ctx, u32 loads)
            {
                for (u32 i = 0; i < loads; ++i)
                    co_await ctx.load(arch::remoteEa(arch::kIgDefault, 1,
                                                     u32(i) * 8));
                co_await ctx.sync();
            }
        };
        engine.spawn(1, [&](exec::GuestCtx &ctx) {
            return Body::run(ctx, loads);
        });
        EXPECT_EQ(sys.run(), arch::RunExit::AllHalted);
        return sys.now();
    };

    // Dependent back-to-back loads: each adds exactly one round trip
    // plus the fixed per-op issue cost, so the difference between a
    // 3-load and a 2-load run isolates the fabric latency.
    const Cycle two = cyclesWithLoads(2);
    const Cycle three = cyclesWithLoads(3);
    EXPECT_GE(three - two, roundTrip);
    EXPECT_LE(three - two, roundTrip + 8); // issue + dependence overhead
}

TEST(Fabric, EpochDefaultsToOneHop)
{
    FabricConfig fc;
    EXPECT_EQ(fc.epoch(), fc.net.routerLatency + fc.net.linkLatency);
    fc.epochCycles = 64;
    EXPECT_EQ(fc.epoch(), 64u);
}
