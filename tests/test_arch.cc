/**
 * @file
 * Unit tests for the timing-fabric components: interest-group mapping,
 * memory banks (occupancy, burst), the data cache (LRU, associativity,
 * byte-valid store-allocate, MSHR merge, scratch ways), the I-cache +
 * PIB, the fault model (bank remap, quad disable), and the off-chip
 * DMA memory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/chip.h"
#include "arch/thread_unit.h"
#include "common/log.h"
#include "common/rng.h"
#include "isa/builder.h"
#include "kernel/heap.h"
#include "kernel/kernel.h"

using namespace cyclops;
using namespace cyclops::arch;
namespace kernel = cyclops::kernel;

// ---------------------------------------------------------------------------
// Interest groups.
// ---------------------------------------------------------------------------

TEST(InterestGroup, EncodingRoundTrip)
{
    for (u32 cls = 0; cls < 8; ++cls) {
        for (u32 index = 0; index < 32; ++index) {
            const u8 field =
                igEncode(static_cast<IgClass>(cls), u8(index));
            const InterestGroup ig = igDecode(field);
            EXPECT_EQ(u32(ig.cls), cls);
            EXPECT_EQ(ig.index, index);
        }
    }
    EXPECT_EQ(kIgDefault, 0b0010'0000); // the paper's kernel default
    EXPECT_EQ(kIgOwn, 0);
}

TEST(InterestGroup, AddressComposition)
{
    const Addr ea = igAddr(igExactly(17), 0x123456);
    EXPECT_EQ(igField(ea), igExactly(17));
    EXPECT_EQ(igPhys(ea), 0x123456u);
}

TEST(InterestGroup, SelectionStaysInSet)
{
    Rng rng(99);
    for (u32 clsIdx = 1; clsIdx <= 6; ++clsIdx) {
        const auto cls = static_cast<IgClass>(clsIdx);
        const u32 size = igGroupSize(cls);
        const u32 numGroups = 32 / size;
        for (u32 group = 0; group < numGroups; ++group) {
            const InterestGroup ig{cls, u8(group)};
            for (int trial = 0; trial < 64; ++trial) {
                const PhysAddr line = PhysAddr(rng.below(1 << 18)) * 64;
                const CacheId cache = igSelectCache(ig, line, 32, ~0u);
                EXPECT_GE(cache, group * size);
                EXPECT_LT(cache, (group + 1) * size);
            }
        }
    }
}

TEST(InterestGroup, DisabledCachesAreAvoided)
{
    Rng rng(7);
    const InterestGroup pair{IgClass::Pair, 0}; // caches {0,1}
    const u32 mask = ~0u & ~(1u << 0);          // cache 0 broken
    for (int trial = 0; trial < 200; ++trial) {
        const PhysAddr line = PhysAddr(rng.below(1 << 18)) * 64;
        EXPECT_EQ(igSelectCache(pair, line, 32, mask), 1u);
    }
    // Whole group broken: falls back to any enabled cache.
    const u32 maskBoth = ~0u & ~3u;
    for (int trial = 0; trial < 200; ++trial) {
        const PhysAddr line = PhysAddr(rng.below(1 << 18)) * 64;
        const CacheId cache = igSelectCache(pair, line, 32, maskBoth);
        EXPECT_GE(cache, 2u);
    }
}

// ---------------------------------------------------------------------------
// Memory bank.
// ---------------------------------------------------------------------------

TEST(MemBank, OccupancyAndQueueing)
{
    ChipConfig cfg;
    StatGroup stats;
    MemBank bank;
    bank.init(0, cfg, &stats);

    // 64-byte line = 2 blocks = 12 cycles of service.
    BankGrant first = bank.reserve(100, 2, 0);
    EXPECT_EQ(first.start, 100u);
    EXPECT_EQ(bank.busyUntil(), 112u);

    // A request during service queues.
    BankGrant second = bank.reserve(105, 2, 4096);
    EXPECT_EQ(second.start, 112u);
    EXPECT_EQ(bank.busyUntil(), 124u);
}

TEST(MemBank, BurstLowersLatencyNotOccupancy)
{
    ChipConfig cfg;
    MemBank bank;
    bank.init(0, cfg, nullptr);

    BankGrant first = bank.reserve(0, 2, 0);
    EXPECT_EQ(first.transferCycles, 12u);
    // Back-to-back sequential access on the open row: burst transfer.
    BankGrant burst = bank.reserve(1, 2, 64);
    EXPECT_EQ(burst.start, 12u);
    EXPECT_EQ(burst.transferCycles, 10u); // lower latency...
    EXPECT_EQ(bank.busyUntil(), 24u);     // ...same occupancy
}

TEST(MemBank, BurstDisabledByConfig)
{
    ChipConfig cfg;
    cfg.burstEnabled = false;
    MemBank bank;
    bank.init(0, cfg, nullptr);
    bank.reserve(0, 2, 0);
    EXPECT_EQ(bank.reserve(1, 2, 64).transferCycles, 12u);
}

// ---------------------------------------------------------------------------
// Data cache behaviour through the fabric.
// ---------------------------------------------------------------------------

namespace
{

struct Fab
{
    ChipConfig cfg;
    Chip chip;
    explicit Fab(ChipConfig c = ChipConfig{}) : cfg(c), chip(cfg) {}
    MemSystem &mem() { return chip.memsys(); }
};

} // namespace

TEST(DCache, HitAfterFill)
{
    Fab f;
    const Addr ea = igAddr(igExactly(0), 0x1000);
    MemTiming miss = f.mem().access(0, 0, ea, 8, MemKind::Load);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.ready, 24u);
    MemTiming hit = f.mem().access(miss.ready, 0, ea, 8, MemKind::Load);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.ready - miss.ready, 6u);
}

TEST(DCache, MshrMergesConcurrentMisses)
{
    Fab f;
    const Addr ea = igAddr(igExactly(0), 0x2000);
    MemTiming first = f.mem().access(0, 0, ea, 8, MemKind::Load);
    // Another thread of the same quad hits the in-flight line: no
    // second fill, completion merged with the first.
    MemTiming merged = f.mem().access(2, 1, ea + 8, 8, MemKind::Load);
    EXPECT_TRUE(merged.hit);
    EXPECT_LE(merged.ready, first.ready + 2);
    EXPECT_EQ(f.chip.stats().counterValue("dcache0.loadMerges"), 1u);
}

TEST(DCache, StoreAllocateNoFetchSkipsTheBanks)
{
    Fab f;
    const Addr ea = igAddr(igExactly(0), 0x3000);
    MemTiming store = f.mem().access(0, 0, ea, 8, MemKind::Store);
    EXPECT_FALSE(store.hit);
    EXPECT_EQ(store.ready, 6u); // no fill: local-hit timing
    EXPECT_EQ(f.chip.stats().counterValue("dcache0.storeAllocs"), 1u);
    EXPECT_EQ(f.chip.stats().counterValue("bank0.accesses") +
                  f.chip.stats().counterValue("bank1.accesses"),
              0u);

    // A load of bytes the store did not cover must fetch.
    MemTiming load = f.mem().access(10, 0, ea + 32, 8, MemKind::Load);
    EXPECT_FALSE(load.hit);
    EXPECT_GT(load.ready, 10u + 20u);
}

TEST(DCache, FetchOnWriteWhenDisabled)
{
    ChipConfig cfg;
    cfg.storeAllocNoFetch = false;
    Fab f(cfg);
    const Addr ea = igAddr(igExactly(0), 0x3000);
    MemTiming store = f.mem().access(0, 0, ea, 8, MemKind::Store);
    EXPECT_FALSE(store.hit);
    EXPECT_EQ(store.ready, 24u); // full line fill
}

TEST(DCache, LruEvictionAndWriteback)
{
    ChipConfig cfg;
    cfg.dcacheAssoc = 2;
    Fab f(cfg);
    // Three lines mapping to the same set of cache 0 (set count =
    // 16KB/64B/2 = 128 sets; stride = 128*64 = 8 KB).
    const u32 stride = cfg.dcacheBytes / cfg.dcacheAssoc;
    const Addr a = igAddr(igExactly(0), 0x0000);
    const Addr b = igAddr(igExactly(0), 0x0000 + stride);
    const Addr c = igAddr(igExactly(0), 0x0000 + 2 * stride);
    Cycle t = 0;
    t = f.mem().access(t, 0, a, 8, MemKind::Store).ready; // dirty
    t = f.mem().access(t, 0, b, 8, MemKind::Load).ready;
    t = f.mem().access(t, 0, c, 8, MemKind::Load).ready;  // evicts a
    EXPECT_EQ(f.chip.stats().counterValue("dcache0.writebacks"), 1u);
    MemTiming again = f.mem().access(t, 0, a, 8, MemKind::Load);
    EXPECT_FALSE(again.hit); // a was evicted (LRU)
}

TEST(DCache, FlushAndInvalidate)
{
    Fab f;
    const Addr ea = igAddr(igExactly(0), 0x4000);
    Cycle t = f.mem().access(0, 0, ea, 8, MemKind::Store).ready;
    EXPECT_TRUE(f.mem().dcache(0).probe(0x4000));
    t = f.mem().flush(t, 0, ea);
    EXPECT_FALSE(f.mem().dcache(0).probe(0x4000));
    EXPECT_EQ(f.chip.stats().counterValue("dcache0.writebacks"), 1u);

    t = f.mem().access(t, 0, ea, 8, MemKind::Load).ready;
    EXPECT_TRUE(f.mem().dcache(0).probe(0x4000));
    f.mem().invalidate(t, 0, ea);
    EXPECT_FALSE(f.mem().dcache(0).probe(0x4000));
}

TEST(DCache, ScratchNeverMisses)
{
    ChipConfig cfg;
    cfg.dcacheScratchWays = 2;
    Fab f(cfg);
    const Addr ea = igAddr(igScratch(0), 0x100);
    for (int i = 0; i < 4; ++i) {
        MemTiming t = f.mem().access(Cycle(i) * 10, 0, ea, 8,
                                     MemKind::Load);
        EXPECT_TRUE(t.hit);
        EXPECT_EQ(t.ready - Cycle(i) * 10, 6u);
    }
}

TEST(DCache, PortSerializesAccesses)
{
    Fab f;
    const Addr ea = igAddr(igExactly(0), 0x5000);
    f.mem().access(0, 0, ea, 8, MemKind::Load);
    // Warm the line, then hit it from all four quad threads in the
    // same cycle: the single port serializes them.
    Cycle t0 = 100;
    Cycle last = 0;
    for (ThreadId tid = 0; tid < 4; ++tid)
        last = std::max(
            last, f.mem().access(t0, tid, ea, 8, MemKind::Load).ready);
    EXPECT_EQ(last, t0 + 3 + 6); // 4th access granted at t0+3
}

TEST(DCache, MixedTrafficPinned)
{
    // Seeded mix of every directory operation on one cache with two
    // scratch ways and three live cache ways (ways 2..4 of 8): loads,
    // stores, atomics, prefetches, remote requesters, dcbf, dcbi,
    // transient tag faults and scratch accesses, over 8 KB: more than
    // the 6 KB of live ways, so lines both hit and get evicted. The
    // counters and the summed ready times are absolute pins of the
    // tag/LRU/valid-mask behaviour.
    ChipConfig cfg;
    cfg.dcacheScratchWays = 2;
    cfg.fault.cacheWays = 3;
    Fab f(cfg);
    DCache &dc = f.mem().dcache(0);
    Rng rng(17);
    Cycle t = 0;
    u64 readySum = 0;
    for (int i = 0; i < 4000; ++i) {
        t += rng.below(4);
        const Addr ea = igAddr(igExactly(0), u32(rng.below(1024)) * 8);
        const u8 bytes = rng.below(2) ? 8 : 4;
        const ThreadId tid = rng.below(8) == 0 ? 5 : ThreadId(rng.below(4));
        const u64 op = rng.below(20);
        if (op < 8) {
            readySum += f.mem().access(t, tid, ea, bytes, MemKind::Load)
                            .ready;
        } else if (op < 13) {
            readySum += f.mem().access(t, tid, ea, bytes, MemKind::Store)
                            .ready;
        } else if (op == 13) {
            readySum += f.mem().access(t, tid, ea, 4, MemKind::Atomic)
                            .ready;
        } else if (op == 14) {
            readySum += f.mem().access(t, tid, ea, 4, MemKind::Prefetch)
                            .ready;
        } else if (op == 15) {
            readySum += f.mem().flush(t, tid, ea);
        } else if (op == 16) {
            readySum += f.mem().invalidate(t, tid, ea);
        } else if (op == 17) {
            dc.faultLine(u32(rng.below(dc.numLines())));
        } else {
            const Addr sa = igAddr(igScratch(0), u32(rng.below(512)) * 8);
            readySum += f.mem().access(t, tid, sa, 8, MemKind::Load).ready;
        }
    }
    const StatGroup &s = f.chip.stats();
    EXPECT_EQ(s.counterValue("dcache0.hits"), 1817u);
    EXPECT_EQ(s.counterValue("dcache0.misses"), 1173u);
    EXPECT_EQ(s.counterValue("dcache0.storeAllocs"), 343u);
    EXPECT_EQ(s.counterValue("dcache0.loadMerges"), 63u);
    EXPECT_EQ(s.counterValue("dcache0.writebacks"), 464u);
    EXPECT_EQ(s.counterValue("dcache0.wbBlocks"), 601u);
    EXPECT_EQ(s.counterValue("dcache0.scratchAccesses"), 437u);
    EXPECT_EQ(readySum, 11372364u);
}

namespace
{

/**
 * The directory invariants the branch-free tag match relies on: slots
 * in scratch ways and in ways past fault.cacheWays hold kNoTag, and no
 * set holds a live tag twice (so at most one way can match).
 */
::testing::AssertionResult
directoryIsSound(const DCache &dc, u32 assoc)
{
    for (u32 set = 0; set < dc.numLines() / assoc; ++set) {
        std::vector<u32> live;
        for (u32 way = 0; way < assoc; ++way) {
            const u32 tag = dc.tagAt(set * assoc + way);
            if (way < dc.waysBegin() || way >= dc.waysEnd()) {
                if (tag != DCache::kNoTag)
                    return ::testing::AssertionFailure()
                           << "set " << set << " dead way " << way
                           << " holds tag " << tag;
            } else if (tag != DCache::kNoTag) {
                if (std::find(live.begin(), live.end(), tag) != live.end())
                    return ::testing::AssertionFailure()
                           << "set " << set << " holds tag " << tag
                           << " twice";
                live.push_back(tag);
            }
        }
    }
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(DCache, DirectoryNeverHoldsATagTwice)
{
    // Seeded fills, evictions, tag faults, dcbf and dcbi on one cache
    // with two scratch ways and three live ways (ways 2..4 of 8), over
    // 8 KB: more than the 6 KB of live ways, so lines are evicted and
    // refetched. The invariants hold after every operation.
    ChipConfig cfg;
    cfg.dcacheScratchWays = 2;
    cfg.fault.cacheWays = 3;
    Fab f(cfg);
    DCache &dc = f.mem().dcache(0);
    ASSERT_EQ(dc.waysBegin(), 2u);
    ASSERT_EQ(dc.waysEnd(), 5u);
    Rng rng(23);
    Cycle t = 0;
    for (int i = 0; i < 3000; ++i) {
        t += rng.below(4);
        const u32 pa = u32(rng.below(1024)) * 8;
        const Addr ea = igAddr(igExactly(0), pa);
        const ThreadId tid = ThreadId(rng.below(4));
        const u64 op = rng.below(16);
        if (op < 6) {
            f.mem().access(t, tid, ea, 8, MemKind::Load);
        } else if (op < 10) {
            f.mem().access(t, tid, ea, 8, MemKind::Store);
        } else if (op == 10) {
            f.mem().access(t, tid, ea, 4, MemKind::Atomic);
        } else if (op == 11) {
            dc.faultLine(u32(rng.below(dc.numLines())));
        } else if (op == 12) {
            dc.flushLine(pa, t, f.mem());
        } else if (op == 13) {
            dc.invalidateLine(pa, t);
        } else {
            f.mem().access(t, tid, igAddr(igScratch(0), pa % 4096), 8,
                           MemKind::Load);
        }
        ASSERT_TRUE(directoryIsSound(dc, cfg.dcacheAssoc))
            << "after operation " << i << " (kind " << op << ")";
    }
    // The mix did fill and evict.
    EXPECT_GT(f.chip.stats().counterValue("dcache0.misses"), 500u);
    EXPECT_GT(f.chip.stats().counterValue("dcache0.writebacks"), 100u);
}

// ---------------------------------------------------------------------------
// Fault model (paper section 5).
// ---------------------------------------------------------------------------

TEST(Faults, BankFailureShrinksAndRemaps)
{
    Chip chip;
    EXPECT_EQ(chip.readSpr(0, isa::kSprMemSize), 8192u); // KB
    chip.failBank(3);
    EXPECT_EQ(chip.readSpr(0, isa::kSprMemSize), 7680u);
    // The surviving space is contiguous and usable end to end.
    const u32 limit = chip.memsys().availableMemBytes();
    chip.memWrite(limit - 8, 8, 0xABCD, 0);
    EXPECT_EQ(chip.memRead(limit - 8, 8, 0), 0xABCDu);
    // Timing path still works for every line.
    MemTiming t = chip.memsys().access(0, 0, igAddr(kIgDefault, limit - 64),
                                       8, MemKind::Load);
    EXPECT_GT(t.ready, 0u);
}

TEST(Faults, AccessBeyondShrunkMemoryThrows)
{
    // Wild guest accesses throw (recoverable by fault campaigns)
    // instead of killing the host process.
    Chip chip;
    chip.failBank(0);
    EXPECT_THROW(
        chip.memRead(chip.memsys().availableMemBytes() + 4, 4, 0),
        GuestError);
}

TEST(Faults, DisabledQuadLeavesScrambling)
{
    Chip chip;
    chip.disableQuad(5);
    EXPECT_FALSE(chip.quadEnabled(5));
    Rng rng(3);
    for (int trial = 0; trial < 500; ++trial) {
        const PhysAddr line = PhysAddr(rng.below(1 << 17)) * 64;
        EXPECT_NE(chip.memsys().routeCache(igAddr(kIgDefault, line), 0),
                  5u);
    }
}

TEST(Faults, KernelSkipsDisabledQuads)
{
    Chip chip;
    chip.disableQuad(0);
    auto order =
        kernel::threadOrder(chip, kernel::AllocPolicy::Sequential);
    EXPECT_EQ(order.size(), chip.config().usableThreads() - 4);
    for (ThreadId tid : order)
        EXPECT_GE(tid, 4u);
}

// ---------------------------------------------------------------------------
// Off-chip memory.
// ---------------------------------------------------------------------------

TEST(OffChip, DmaRoundTrip)
{
    Chip chip;
    std::vector<u8> out(2048);
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = u8(i * 7);
    chip.writePhys(0x1000, out.data(), u32(out.size()));

    Cycle done = chip.offchip().startDma(0, DmaDir::FromChip, 4096,
                                         0x1000, 2048, chip);
    EXPECT_EQ(done, 2 * chip.config().lat.offChipBlockCycles);

    // Clear and read it back.
    std::vector<u8> zero(2048, 0);
    chip.writePhys(0x1000, zero.data(), 2048);
    done = chip.offchip().startDma(done, DmaDir::ToChip, 4096, 0x1000,
                                   2048, chip);
    std::vector<u8> in(2048);
    chip.readPhys(0x1000, in.data(), 2048);
    EXPECT_EQ(in, out);
}

TEST(OffChip, ChannelSerializesTransfers)
{
    Chip chip;
    const Cycle per = chip.config().lat.offChipBlockCycles;
    const Cycle first =
        chip.offchip().startDma(0, DmaDir::FromChip, 0, 0, 1024, chip);
    const Cycle second =
        chip.offchip().startDma(1, DmaDir::FromChip, 1024, 0, 1024,
                                chip);
    EXPECT_EQ(first, per);
    EXPECT_EQ(second, 2 * per);
}

TEST(OffChip, RejectsPartialBlocks)
{
    EXPECT_DEATH(
        {
            setLogLevel(LogLevel::Quiet);
            Chip chip;
            chip.offchip().startDma(0, DmaDir::ToChip, 0, 0, 100, chip);
        },
        "");
}

// ---------------------------------------------------------------------------
// Heap.
// ---------------------------------------------------------------------------

TEST(Heap, AllocAlignFreeCoalesce)
{
    kernel::Heap heap(0x1000, 0x2000);
    const PhysAddr a = heap.alloc(100, 64);
    const PhysAddr b = heap.alloc(200, 64);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 100);
    heap.free(a);
    const PhysAddr c = heap.alloc(90, 64);
    EXPECT_EQ(c, a); // reused from the free list
    heap.free(b);
    heap.free(c);
    heap.reset();
    EXPECT_EQ(heap.alloc(8), 0x1000u);
}

TEST(Heap, ExhaustionDies)
{
    EXPECT_DEATH(
        {
            setLogLevel(LogLevel::Quiet);
            kernel::Heap heap(0, 1024);
            heap.alloc(4096);
        },
        "");
}
