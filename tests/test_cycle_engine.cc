/**
 * @file
 * Unit tests for the cycle engine's wheel-bitmap fast-forward (idle
 * gaps inside and beyond the wheel window, wrap-around, far-queue
 * interaction) and for the memory switch's bank routing before and
 * after bank failures (power-of-two shift/mask fast path vs. the
 * remapped modulo slow path).
 */

#include <gtest/gtest.h>

#include <vector>

#include "arch/chip.h"

using namespace cyclops;
using namespace cyclops::arch;

namespace
{

/**
 * A unit that wakes at a fixed list of absolute cycles, recording the
 * cycle of every tick it receives, then halts.
 */
class WakeListUnit : public Unit
{
  public:
    WakeListUnit(ThreadId tid, std::vector<Cycle> wakes)
        : Unit(tid), wakes_(std::move(wakes))
    {
    }

    Cycle
    tick(Cycle now) override
    {
        ticks.push_back(now);
        if (next_ >= wakes_.size()) {
            markHalted();
            return kCycleNever;
        }
        return wakes_[next_++];
    }

    std::vector<Cycle> ticks;

  private:
    std::vector<Cycle> wakes_;
    size_t next_ = 0;
};

ChipConfig
smallConfig()
{
    ChipConfig cfg;
    return cfg;
}

} // namespace

TEST(CycleEngine, FastForwardSkipsIdleGapInsideWheel)
{
    Chip chip(smallConfig());
    // Wake at 1 (activation), then 100, then 900, then halt.
    auto unit = std::make_unique<WakeListUnit>(
        0, std::vector<Cycle>{100, 900});
    WakeListUnit *raw = unit.get();
    chip.setUnit(0, std::move(unit));
    chip.activate(0);
    EXPECT_EQ(chip.run(), RunExit::AllHalted);

    ASSERT_EQ(raw->ticks.size(), 3u);
    EXPECT_EQ(raw->ticks[0], 1u);
    EXPECT_EQ(raw->ticks[1], 100u);
    EXPECT_EQ(raw->ticks[2], 900u);
    EXPECT_EQ(chip.now(), 901u); // one cycle past the final tick
    // Idle gaps are skipped, not stepped: the cycle counter counts
    // the fast-forward jumps plus the three busy cycles.
    EXPECT_EQ(chip.stats().counterValue("chip.cycles"), 901u);
}

TEST(CycleEngine, FastForwardBeyondWheelUsesFarQueue)
{
    // Next event far beyond the 1024-slot wheel: the far queue feeds
    // the fast-forward and the engine lands exactly on the wake cycle.
    Chip chip(smallConfig());
    auto unit = std::make_unique<WakeListUnit>(
        0, std::vector<Cycle>{5000, 5001, 123456});
    WakeListUnit *raw = unit.get();
    chip.setUnit(0, std::move(unit));
    chip.activate(0);
    EXPECT_EQ(chip.run(), RunExit::AllHalted);

    ASSERT_EQ(raw->ticks.size(), 4u);
    EXPECT_EQ(raw->ticks[0], 1u);
    EXPECT_EQ(raw->ticks[1], 5000u);
    EXPECT_EQ(raw->ticks[2], 5001u);
    EXPECT_EQ(raw->ticks[3], 123456u);
    EXPECT_EQ(chip.now(), 123457u);
}

TEST(CycleEngine, WheelWrapAround)
{
    // Schedule wakes that straddle multiples of the 1024-cycle wheel
    // so occupied slots wrap below the current slot index. Deltas are
    // all < 1024, so every event lives in the wheel, never the far
    // queue.
    Chip chip(smallConfig());
    std::vector<Cycle> wakes;
    Cycle c = 1;
    for (int i = 0; i < 40; ++i) {
        c += 1000; // just under the wheel size: wraps every round
        wakes.push_back(c);
    }
    auto unit = std::make_unique<WakeListUnit>(0, wakes);
    WakeListUnit *raw = unit.get();
    chip.setUnit(0, std::move(unit));
    chip.activate(0);
    EXPECT_EQ(chip.run(), RunExit::AllHalted);

    ASSERT_EQ(raw->ticks.size(), wakes.size() + 1);
    EXPECT_EQ(raw->ticks[0], 1u);
    for (size_t i = 0; i < wakes.size(); ++i)
        EXPECT_EQ(raw->ticks[i + 1], wakes[i]);
}

TEST(CycleEngine, WheelAndFarQueueInterleave)
{
    // One near unit (wheel) and one far unit (heap): both must be
    // served at their exact cycles regardless of which queue holds
    // them.
    Chip chip(smallConfig());
    auto near = std::make_unique<WakeListUnit>(
        0, std::vector<Cycle>{50, 60, 70});
    auto far = std::make_unique<WakeListUnit>(
        4, std::vector<Cycle>{2000, 2048});
    WakeListUnit *rawNear = near.get();
    WakeListUnit *rawFar = far.get();
    chip.setUnit(0, std::move(near));
    chip.setUnit(4, std::move(far));
    chip.activate(0);
    chip.activate(4);
    EXPECT_EQ(chip.run(), RunExit::AllHalted);

    EXPECT_EQ(rawNear->ticks,
              (std::vector<Cycle>{1, 50, 60, 70}));
    EXPECT_EQ(rawFar->ticks, (std::vector<Cycle>{1, 2000, 2048}));
    EXPECT_EQ(chip.now(), 2049u);
}

TEST(CycleEngine, CycleLimitStopsAndResumes)
{
    Chip chip(smallConfig());
    auto unit = std::make_unique<WakeListUnit>(
        0, std::vector<Cycle>{10000});
    WakeListUnit *raw = unit.get();
    chip.setUnit(0, std::move(unit));
    chip.activate(0);
    EXPECT_EQ(chip.run(100), RunExit::CycleLimit);
    EXPECT_GE(chip.now(), 100u);
    EXPECT_LE(chip.now(), 10000u); // fast-forward may land on the wake
    EXPECT_EQ(chip.run(), RunExit::AllHalted);
    ASSERT_EQ(raw->ticks.size(), 2u);
    EXPECT_EQ(raw->ticks[1], 10000u);
}

TEST(CycleEngine, SameCycleOrderIsPushOrderRotated)
{
    // A cycle's due units are served in the order they were queued,
    // starting at now % n: the arbitration order every golden pins.
    struct LogUnit : Unit
    {
        LogUnit(ThreadId tid, std::vector<std::pair<Cycle, ThreadId>> *log)
            : Unit(tid), log(log)
        {
        }
        Cycle
        tick(Cycle now) override
        {
            log->emplace_back(now, tid());
            if (now >= 10) {
                markHalted();
                return kCycleNever;
            }
            return 10;
        }
        std::vector<std::pair<Cycle, ThreadId>> *log;
    };
    std::vector<std::pair<Cycle, ThreadId>> log;
    Chip chip(smallConfig());
    for (ThreadId t : {2u, 0u, 1u}) {
        chip.setUnit(t, std::make_unique<LogUnit>(t, &log));
        chip.activate(t);
    }
    EXPECT_EQ(chip.run(), RunExit::AllHalted);
    // Cycle 1 holds [2, 0, 1], served from 1 % 3; the ticks requeue
    // them at cycle 10 as [0, 1, 2], served from 10 % 3.
    const std::vector<std::pair<Cycle, ThreadId>> want = {
        {1, 0}, {1, 1}, {1, 2}, {10, 1}, {10, 2}, {10, 0}};
    EXPECT_EQ(log, want);
}

TEST(CycleEngine, ActivatingARunningUnitDies)
{
    EXPECT_DEATH(
        {
            Chip chip(smallConfig());
            chip.setUnit(0, std::make_unique<WakeListUnit>(
                                0, std::vector<Cycle>{10}));
            chip.activate(0);
            chip.activate(0);
        },
        "already running");
}

// ---------------------------------------------------------------------------
// Bank routing: pow2 fast path vs. remapped slow path.
// ---------------------------------------------------------------------------

namespace
{

/** Reference interleave: explicit div/mod over the operational list. */
std::pair<BankId, PhysAddr>
referenceRoute(PhysAddr addr, u32 lineBytes,
               const std::vector<BankId> &avail)
{
    const u32 lineIdx = addr / lineBytes;
    const u32 numAvail = u32(avail.size());
    const BankId bank = avail[lineIdx % numAvail];
    const PhysAddr bankAddr =
        (lineIdx / numAvail) * lineBytes + (addr % lineBytes);
    return {bank, bankAddr};
}

} // namespace

TEST(BankRouting, Pow2FastPathMatchesReference)
{
    Chip chip(smallConfig());
    const u32 lineBytes = chip.config().dcacheLineBytes;
    std::vector<BankId> avail;
    for (BankId b = 0; b < chip.config().numBanks; ++b)
        avail.push_back(b);

    for (PhysAddr addr = 0; addr < 512 * 1024; addr += 4093) {
        const auto got = chip.memsys().routeInfo(addr);
        const auto want = referenceRoute(addr, lineBytes, avail);
        EXPECT_EQ(got.first, want.first) << "addr " << addr;
        EXPECT_EQ(got.second, want.second) << "addr " << addr;
    }
}

TEST(BankRouting, FailedBankTakesRemappedSlowPath)
{
    Chip chip(smallConfig());
    const u32 lineBytes = chip.config().dcacheLineBytes;
    chip.failBank(3); // 15 banks: not a power of two
    std::vector<BankId> avail;
    for (BankId b = 0; b < chip.config().numBanks; ++b)
        if (b != 3)
            avail.push_back(b);
    ASSERT_EQ(avail.size(), 15u);

    for (PhysAddr addr = 0; addr < 512 * 1024; addr += 4093) {
        const auto got = chip.memsys().routeInfo(addr);
        const auto want = referenceRoute(addr, lineBytes, avail);
        EXPECT_EQ(got.first, want.first) << "addr " << addr;
        EXPECT_EQ(got.second, want.second) << "addr " << addr;
        EXPECT_NE(got.first, 3u); // never the failed bank
    }
}

TEST(BankRouting, Pow2SubsetAfterFailuresAgrees)
{
    // Fail down to 8 banks: the fast path re-engages on the remapped
    // list and must still agree with the reference interleave.
    Chip chip(smallConfig());
    const u32 lineBytes = chip.config().dcacheLineBytes;
    std::vector<BankId> avail;
    for (BankId b = 0; b < chip.config().numBanks; ++b)
        avail.push_back(b);
    for (BankId b : {1u, 3u, 6u, 7u, 10u, 12u, 13u, 15u}) {
        chip.failBank(b);
        std::erase(avail, b);
    }
    ASSERT_EQ(avail.size(), 8u);
    EXPECT_EQ(chip.memsys().availableMemBytes(),
              8 * chip.config().bankBytes);

    for (PhysAddr addr = 0; addr < chip.memsys().availableMemBytes();
         addr += 2039) {
        const auto got = chip.memsys().routeInfo(addr);
        const auto want = referenceRoute(addr, lineBytes, avail);
        EXPECT_EQ(got.first, want.first) << "addr " << addr;
        EXPECT_EQ(got.second, want.second) << "addr " << addr;
        EXPECT_LT(got.second, chip.config().bankBytes);
    }
}
