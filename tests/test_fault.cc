/**
 * @file
 * Robustness tests: RunExit reasons on both frontends (halt, cycle
 * limit, deadlock watchdog, host stop signal), the Chip::run deadline
 * overflow clamp, degraded-chip fault maps (boot enumeration, barrier
 * masking, interest-group remap, reduced cache ways), structured
 * configuration errors, guest-error classification, and determinism of
 * seeded fault-injection campaigns.
 */

#include <gtest/gtest.h>

#include <csignal>

#include "arch/chip.h"
#include "arch/thread_unit.h"
#include "common/log.h"
#include "exec/engine.h"
#include "exec/guest_unit.h"
#include "fault/fault.h"
#include "isa/assembler.h"
#include "isa/builder.h"
#include "kernel/kernel.h"
#include "verify/diff_runner.h"
#include "workloads/stream.h"

using namespace cyclops;
using namespace cyclops::arch;
namespace kernel = cyclops::kernel;
namespace exec = cyclops::exec;

namespace
{

isa::Program
assembleOrDie(const std::string &src)
{
    isa::AsmResult res = isa::assemble(src);
    EXPECT_TRUE(res.ok) << res.error;
    return res.program;
}

/** A chip running @p threads copies of @p src from cycle 0. */
std::unique_ptr<Chip>
makeChip(const std::string &src, u32 threads,
         const ChipConfig &cfg = ChipConfig{})
{
    auto chip = std::make_unique<Chip>(cfg);
    const isa::Program p = assembleOrDie(src);
    chip->loadProgram(p);
    for (ThreadId t = 0; t < threads; ++t) {
        chip->setUnit(t, std::make_unique<ThreadUnit>(t, *chip,
                                                      p.entry));
        chip->activate(t);
    }
    return chip;
}

// A spin loop with the address hoisted out: re-reads one never-written
// word forever, so it retires instructions but makes no progress.
constexpr const char *kDeadlockAsm = R"(
        la      r10, flag
    spin:
        lw      r11, 0(r10)
        beqz    r11, spin
        halt
        .data
        .align 64
    flag:
        .word 0
)";

// A long-but-finite loop whose counter changes every iteration, so it
// generates progress events throughout.
constexpr const char *kBusyAsm = R"(
        li      r5, 60000
    loop:
        addi    r5, r5, -1
        bnez    r5, loop
        halt
)";

} // namespace

// ---------------------------------------------------------------------------
// RunExit reasons, ISA frontend.
// ---------------------------------------------------------------------------

TEST(RunExitIsa, AllHalted)
{
    auto chip = makeChip("halt\n", 2);
    const RunExit exit = chip->run();
    EXPECT_EQ(exit, RunExit::AllHalted);
    EXPECT_STREQ(runExitName(exit.reason), "allHalted");
}

TEST(RunExitIsa, CycleLimit)
{
    auto chip = makeChip(kBusyAsm, 1);
    const RunExit exit = chip->run(5'000);
    EXPECT_EQ(exit, RunExit::CycleLimit);
    EXPECT_GE(exit.at, 5'000u);
    EXPECT_STREQ(runExitName(exit.reason), "cycleLimit");
    EXPECT_EQ(chip->liveUnits(), 1u);
}

TEST(RunExitIsa, WatchdogCatchesSpinDeadlock)
{
    ChipConfig cfg;
    cfg.fault.watchdogCycles = 20'000;
    auto chip = makeChip(kDeadlockAsm, 2, cfg);
    const RunExit exit = chip->run(10'000'000);
    ASSERT_EQ(exit, RunExit::Watchdog);
    EXPECT_STREQ(runExitName(exit.reason), "watchdog");
    // The diagnostic names the window and dumps per-TU state.
    EXPECT_NE(exit.diagnostic.find("deadlock watchdog"),
              std::string::npos);
    EXPECT_NE(exit.diagnostic.find("tu   0"), std::string::npos);
    EXPECT_NE(exit.diagnostic.find("tu   1"), std::string::npos);
    EXPECT_NE(exit.diagnostic.find("lastPoll"), std::string::npos);
    // It fired promptly after the window, not at the cycle budget.
    EXPECT_LT(exit.at, 100'000u);
}

TEST(RunExitIsa, WatchdogOffByDefaultForShortWindows)
{
    // No false positive: a program that keeps making progress runs to
    // completion under a tight watchdog.
    ChipConfig cfg;
    cfg.fault.watchdogCycles = 20'000;
    auto chip = makeChip(kBusyAsm, 2, cfg);
    EXPECT_EQ(chip->run(10'000'000), RunExit::AllHalted);
}

TEST(RunExitIsa, WatchdogDisabledByZero)
{
    ChipConfig cfg;
    cfg.fault.watchdogCycles = 0;
    auto chip = makeChip(kDeadlockAsm, 1, cfg);
    EXPECT_EQ(chip->run(200'000), RunExit::CycleLimit);
}

TEST(RunExitIsa, SignalStopsRun)
{
    clearRunStop();
    auto chip = makeChip(kDeadlockAsm, 1);
    requestRunStop(SIGINT);
    EXPECT_TRUE(runStopRequested());
    const RunExit exit = chip->run(10'000'000);
    ASSERT_EQ(exit, RunExit::Signal);
    EXPECT_EQ(exit.signal, SIGINT);
    EXPECT_STREQ(runExitName(exit.reason), "signal");
    clearRunStop();
    EXPECT_FALSE(runStopRequested());
}

TEST(RunExitIsa, DeadlineOverflowClampRegression)
{
    // now_ + maxCycles used to wrap for budgets near kCycleNever,
    // making run() return CycleLimit immediately. A finite huge budget
    // must clamp and run to completion.
    auto chip = makeChip(kBusyAsm, 1);
    chip->run(10); // advance now_ so the addition would overflow
    const RunExit exit = chip->run(kCycleNever - 5);
    EXPECT_EQ(exit, RunExit::AllHalted);
    EXPECT_EQ(chip->liveUnits(), 0u);
}

// ---------------------------------------------------------------------------
// RunExit reasons, execution-driven frontend.
// ---------------------------------------------------------------------------

namespace
{

struct World
{
    Chip chip;
    exec::GuestEngine engine;
    explicit World(ChipConfig cfg = ChipConfig{})
        : chip(cfg), engine(chip, kernel::AllocPolicy::Sequential)
    {}
};

/**
 * A guest that spins loading one address forever. The address is a
 * coroutine parameter, so it lives in the coroutine frame: a capturing
 * coroutine lambda would read it through a closure that spawn() has
 * already destroyed.
 */
struct LoadSpin
{
    static exec::GuestTask
    run(exec::GuestCtx &ctx, Addr flag)
    {
        for (;;)
            co_await ctx.load(flag, 8); // same address, same value
    }
};

} // namespace

TEST(RunExitExec, AllHalted)
{
    World w;
    w.engine.spawn(2, [](exec::GuestCtx &ctx) -> exec::GuestTask {
        co_await ctx.alu(32);
    });
    EXPECT_EQ(w.engine.run(100'000), RunExit::AllHalted);
}

TEST(RunExitExec, CycleLimit)
{
    World w;
    w.engine.spawn(1, [](exec::GuestCtx &ctx) -> exec::GuestTask {
        for (;;)
            co_await ctx.alu(1); // forward progress forever
    });
    EXPECT_EQ(w.engine.run(30'000), RunExit::CycleLimit);
}

TEST(RunExitExec, WatchdogCatchesLoadSpin)
{
    ChipConfig cfg;
    cfg.fault.watchdogCycles = 20'000;
    World w(cfg);
    const Addr flag = igAddr(kIgDefault, w.engine.heap().alloc(64, 64));
    w.engine.spawn(2, [&](exec::GuestCtx &ctx) {
        return LoadSpin::run(ctx, flag);
    });
    const RunExit exit = w.engine.run(10'000'000);
    ASSERT_EQ(exit, RunExit::Watchdog);
    EXPECT_NE(exit.diagnostic.find("deadlock watchdog"),
              std::string::npos);
    EXPECT_LT(exit.at, 100'000u);
}

TEST(RunExitExec, WatchdogCatchesCrossedBarriers)
{
    // Classic crossed-id deadlock: every spawned guest arms all four
    // hardware barriers, so each thread spins waiting for the other to
    // enter the barrier it chose — which never happens.
    ChipConfig cfg;
    cfg.fault.watchdogCycles = 20'000;
    World w(cfg);
    w.engine.spawn(2, [](exec::GuestCtx &ctx) -> exec::GuestTask {
        co_await ctx.hwBarrier(ctx.index() == 0 ? 0 : 1);
    });
    const RunExit exit = w.engine.run(10'000'000);
    ASSERT_EQ(exit, RunExit::Watchdog);
    // The dump shows both spinners holding their barrier bits.
    EXPECT_NE(exit.diagnostic.find("barrier"), std::string::npos);
}

TEST(RunExitExec, SignalStopsRun)
{
    clearRunStop();
    World w;
    const Addr flag = igAddr(kIgDefault, w.engine.heap().alloc(64, 64));
    w.engine.spawn(1, [&](exec::GuestCtx &ctx) {
        return LoadSpin::run(ctx, flag);
    });
    requestRunStop(SIGTERM);
    const RunExit exit = w.engine.run(10'000'000);
    ASSERT_EQ(exit, RunExit::Signal);
    EXPECT_EQ(exit.signal, SIGTERM);
    clearRunStop();
}

// ---------------------------------------------------------------------------
// Degraded chips.
// ---------------------------------------------------------------------------

TEST(Degraded, StreamSurvivesDeadBankAndQuad)
{
    ChipConfig cfg;
    cfg.fault.disabledBanks = {5};
    cfg.fault.disabledQuads = {3};
    workloads::StreamConfig sc;
    sc.kernel = workloads::StreamKernel::Copy;
    sc.threads = 64;
    sc.elementsPerThread = 128;
    sc.localCaches = true;
    const workloads::StreamResult res = workloads::runStream(sc, cfg);
    EXPECT_TRUE(res.verified);
    EXPECT_GT(res.totalGBs, 0.0);
}

TEST(Degraded, ThreadOrderSkipsDeadComponents)
{
    ChipConfig cfg;
    cfg.fault.disabledTus = {0};     // 1 TU
    cfg.fault.disabledQuads = {3};   // TUs 12..15 (within I-cache 1)
    cfg.fault.disabledIcaches = {1}; // TUs 8..15
    cfg.fault.disabledFpus = {5};    // TUs 20..23 unschedulable
    Chip chip(cfg);
    const auto order =
        kernel::threadOrder(chip, kernel::AllocPolicy::Sequential);
    // 126 usable minus tu0, minus the I-cache's 8 TUs (covering the
    // dead quad), minus the FPU-less quad's 4.
    EXPECT_EQ(order.size(), 126u - 1 - 8 - 4);
    for (ThreadId tid : order) {
        EXPECT_TRUE(chip.tuSchedulable(tid));
        EXPECT_NE(tid, 0u);
        EXPECT_FALSE(tid >= 8 && tid < 16);
        EXPECT_FALSE(tid >= 20 && tid < 24);
    }
    // Alive but unschedulable: a working TU whose quad lost its FPU.
    EXPECT_TRUE(chip.tuAlive(20));
    EXPECT_FALSE(chip.tuSchedulable(20));
    EXPECT_FALSE(chip.fpuEnabled(5));
}

TEST(Degraded, BarrierMasksDeadTus)
{
    ChipConfig cfg;
    cfg.fault.disabledTus = {2};
    Chip chip(cfg);
    // A fused-off TU can never hold a wired-OR bit high.
    chip.barrier().write(2, 0xFF);
    EXPECT_EQ(chip.barrier().read(), 0u);
    EXPECT_EQ(chip.barrier().threadValue(2), 0u);
    // Alive TUs participate normally.
    chip.barrier().write(1, 0x11);
    EXPECT_EQ(chip.barrier().read(), 0x11u);
}

TEST(Degraded, OwnInterestGroupRemapsToAliveCache)
{
    ChipConfig cfg;
    cfg.fault.disabledDcaches = {0};
    Chip chip(cfg);
    // TU 0's local cache is dead; an own-class access must route to
    // the next alive cache instead of the fused-off one.
    const PhysAddr pa = 64 * 1024;
    chip.memsys().access(0, 0, igAddr(kIgOwn, pa), 8, MemKind::Load);
    EXPECT_FALSE(chip.memsys().cacheEnabled(0));
    EXPECT_FALSE(chip.memsys().dcache(0).probe(pa));
    EXPECT_TRUE(chip.memsys().dcache(1).probe(pa));
}

TEST(Degraded, ScratchToDeadCacheFaults)
{
    ChipConfig cfg;
    cfg.dcacheScratchWays = 2;
    cfg.fault.disabledDcaches = {1};
    Chip chip(cfg);
    // Scratchpad storage physically lives in the dead cache's ways:
    // unlike the remappable own-class, access must fault the guest.
    EXPECT_THROW(chip.memRead(igAddr(igScratch(1), 0), 4, 0),
                 GuestError);
    // Scratch in an alive cache still works.
    chip.memWrite(igAddr(igScratch(2), 8), 4, 77, 8);
    EXPECT_EQ(chip.memRead(igAddr(igScratch(2), 8), 4, 8), 77u);
}

TEST(Degraded, ReducedCacheWaysStillRun)
{
    ChipConfig cfg;
    cfg.fault.cacheWays = 1; // direct-mapped survivor ways
    auto chip = makeChip(R"(
        la      r10, out
        li      r11, 123
        sw      r11, 0(r10)
        lw      r12, 0(r10)
        halt
        .data
        .align 64
    out:
        .word 0
    )",
                         1, cfg);
    EXPECT_EQ(chip->run(100'000), RunExit::AllHalted);
    EXPECT_EQ(static_cast<ThreadUnit *>(chip->unit(0))->reg(12), 123u);
}

TEST(Degraded, ActivatingDeadTuDies)
{
    setLogLevel(LogLevel::Quiet);
    ChipConfig cfg;
    cfg.fault.disabledTus = {3};
    EXPECT_DEATH(
        {
            Chip chip(cfg);
            const isa::Program p = assembleOrDie("halt\n");
            chip.loadProgram(p);
            chip.setUnit(3, std::make_unique<ThreadUnit>(3, chip, 0));
            chip.activate(3);
        },
        "");
    setLogLevel(LogLevel::Normal);
}

TEST(Degraded, FaultLineInvalidatesTimingDirectory)
{
    Chip chip;
    const PhysAddr pa = 8 * 1024;
    chip.memsys().access(0, 0, igAddr(igExactly(0), pa), 8,
                         MemKind::Load);
    ASSERT_TRUE(chip.memsys().dcache(0).probe(pa));
    // Find and kill the line: some index must have been valid.
    bool killed = false;
    for (u32 idx = 0; idx < chip.memsys().dcache(0).numLines(); ++idx)
        killed |= chip.memsys().dcache(0).faultLine(idx);
    EXPECT_TRUE(killed);
    EXPECT_FALSE(chip.memsys().dcache(0).probe(pa));
}

// ---------------------------------------------------------------------------
// Structured configuration errors.
// ---------------------------------------------------------------------------

TEST(Config, CheckReportsFirstViolation)
{
    ChipConfig good;
    EXPECT_EQ(good.check(), "");

    ChipConfig badThreads;
    badThreads.numThreads = 96;
    EXPECT_NE(badThreads.check().find("power of two"),
              std::string::npos);

    ChipConfig badBank;
    badBank.fault.disabledBanks = {99};
    EXPECT_NE(badBank.check().find("no such component"),
              std::string::npos);

    ChipConfig allBanks;
    for (u32 b = 0; b < allBanks.numBanks; ++b)
        allBanks.fault.disabledBanks.push_back(b);
    EXPECT_NE(allBanks.check().find("every memory bank"),
              std::string::npos);

    ChipConfig allCaches;
    for (u32 c = 0; c < allCaches.numCaches(); ++c)
        allCaches.fault.disabledDcaches.push_back(c);
    EXPECT_NE(allCaches.check().find("every data cache"),
              std::string::npos);

    ChipConfig badWays;
    badWays.fault.cacheWays = 100;
    EXPECT_NE(badWays.check().find("cacheWays"), std::string::npos);
}

TEST(Config, RejectsNonPow2CacheSets)
{
    // 24 KB / 64 B / 8-way = 48 D-cache sets: with the set taken by a
    // mask, lines 0 and 16 would share set 0 and tag 0 (a false hit).
    ChipConfig dcache;
    dcache.dcacheBytes = 24 * 1024;
    const std::string derr = dcache.check();
    EXPECT_NE(derr.find("dcacheBytes"), std::string::npos) << derr;
    EXPECT_NE(derr.find("48 sets"), std::string::npos) << derr;

    // 24 KB / 32 B / 8-way = 96 I-cache sets.
    ChipConfig icache;
    icache.icacheBytes = 24 * 1024;
    const std::string ierr = icache.check();
    EXPECT_NE(ierr.find("icacheBytes"), std::string::npos) << ierr;
    EXPECT_NE(ierr.find("96 sets"), std::string::npos) << ierr;

    ChipConfig pow2;
    pow2.dcacheBytes = 32 * 1024;
    pow2.icacheBytes = 16 * 1024;
    EXPECT_EQ(pow2.check(), "");
}

// ---------------------------------------------------------------------------
// Guest-error classification.
// ---------------------------------------------------------------------------

TEST(GuestErrors, MisalignedIsDetectableCheck)
{
    Chip chip;
    try {
        chip.memRead(2, 4, 0);
        FAIL() << "expected GuestError";
    } catch (const GuestError &err) {
        EXPECT_EQ(err.kind(), GuestError::Kind::Check);
    }
}

TEST(GuestErrors, OutOfRangeIsCrash)
{
    Chip chip;
    try {
        chip.memRead(chip.config().memBytes() + 64, 4, 0);
        FAIL() << "expected GuestError";
    } catch (const GuestError &err) {
        EXPECT_EQ(err.kind(), GuestError::Kind::Crash);
    }
}

// ---------------------------------------------------------------------------
// Fuzz timeouts stay distinct from watchdog hangs.
// ---------------------------------------------------------------------------

TEST(FuzzInterop, DefaultWatchdogOutlastsDiffBudget)
{
    // A runaway fuzz candidate must classify as a diff timeout (benign,
    // skipped), never as a watchdog hang: the default watchdog window
    // exceeds the differential runner's whole cycle budget.
    const verify::DiffConfig diff;
    EXPECT_GT(diff.chip.fault.watchdogCycles, diff.maxCycles);
    ChipConfig def;
    EXPECT_GT(def.fault.watchdogCycles, diff.maxCycles);
}

// ---------------------------------------------------------------------------
// Fault-injection campaigns.
// ---------------------------------------------------------------------------

TEST(Faultcamp, DeterministicAcrossJobCounts)
{
    fault::CampaignOptions opts;
    opts.seed = 11;
    opts.iterations = 10;
    opts.threads = 2;
    opts.bodyOps = 24;
    const fault::CampaignResult serial = fault::runCampaign(opts, 1);
    const fault::CampaignResult parallel = fault::runCampaign(opts, 4);
    ASSERT_EQ(serial.injections.size(), 10u);
    ASSERT_EQ(parallel.injections.size(), 10u);
    u64 total = 0;
    for (unsigned c = 0; c < fault::kNumOutcomes; ++c) {
        EXPECT_EQ(serial.counts[c], parallel.counts[c]);
        total += serial.counts[c];
    }
    EXPECT_EQ(total, 10u); // every injection in exactly one class
    for (size_t i = 0; i < serial.injections.size(); ++i) {
        EXPECT_EQ(serial.injections[i].outcome,
                  parallel.injections[i].outcome);
        EXPECT_EQ(serial.injections[i].seed, parallel.injections[i].seed);
        EXPECT_EQ(serial.injections[i].spec.kind,
                  parallel.injections[i].spec.kind);
        EXPECT_EQ(serial.injections[i].spec.cycle,
                  parallel.injections[i].spec.cycle);
    }
}

TEST(Faultcamp, InjectionIsSelfContained)
{
    fault::CampaignOptions opts;
    opts.seed = 5;
    opts.threads = 2;
    opts.bodyOps = 24;
    const fault::InjectionResult a = fault::runInjection(opts, 3);
    const fault::InjectionResult b = fault::runInjection(opts, 3);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_GE(a.spec.cycle, 1u);
    EXPECT_GT(a.cycles, 0u);
}

// ---------------------------------------------------------------------------
// Diagnostics pin: a bad data reference gives one first error text,
// whatever the frontend and whatever the access kind.
// ---------------------------------------------------------------------------

namespace
{

enum class RefKind { Load, Store, Atomic };

/** First GuestError text of one @p kind reference to @p ea by ISA TU 0. */
std::string
isaRefError(const ChipConfig &cfg, Addr ea, RefKind kind)
{
    Chip chip(cfg);
    isa::ProgramBuilder b;
    b.li(5, ea);
    switch (kind) {
      case RefKind::Load: b.lw(6, 0, 5); break;
      case RefKind::Store: b.sw(6, 0, 5); break;
      case RefKind::Atomic: b.amoadd(6, 5, 7); break;
    }
    b.halt();
    const isa::Program program = b.finish();
    chip.loadProgram(program);
    chip.setUnit(0, std::make_unique<ThreadUnit>(0, chip, program.entry));
    chip.activate(0);
    try {
        chip.run(100'000);
    } catch (const GuestError &err) {
        return err.what();
    }
    return "no error";
}

struct BadRefBody
{
    static exec::GuestTask
    run(exec::GuestCtx &ctx, Addr ea, RefKind kind)
    {
        switch (kind) {
          case RefKind::Load: co_await ctx.load(ea, 4); break;
          case RefKind::Store: co_await ctx.store(ea, 1, 4); break;
          case RefKind::Atomic: co_await ctx.amoadd(ea, 1); break;
        }
    }
};

/** First GuestError text of the same reference by guest thread 0. */
std::string
guestRefError(const ChipConfig &cfg, Addr ea, RefKind kind)
{
    Chip chip(cfg);
    exec::GuestEngine engine(chip);
    engine.spawn(1, [ea, kind](exec::GuestCtx &ctx) {
        return BadRefBody::run(ctx, ea, kind);
    });
    try {
        engine.run(100'000);
    } catch (const GuestError &err) {
        return err.what();
    }
    return "no error";
}

void
expectRefError(const ChipConfig &cfg, Addr ea, const std::string &want)
{
    for (RefKind kind : {RefKind::Load, RefKind::Store, RefKind::Atomic}) {
        EXPECT_EQ(isaRefError(cfg, ea, kind), want)
            << "ISA kind " << int(kind);
        EXPECT_EQ(guestRefError(cfg, ea, kind), want)
            << "guest kind " << int(kind);
    }
}

} // namespace

TEST(GuestErrors, MisalignedTextIsFrontendIndependent)
{
    const Addr ea = igAddr(kIgDefault, 0x20002);
    expectRefError(ChipConfig{}, ea,
                   strprintf("misaligned 4-byte access at 0x%08x "
                             "(thread 0)", ea));
}

TEST(GuestErrors, BeyondMemoryTextIsFrontendIndependent)
{
    const ChipConfig cfg;
    const u32 kb = cfg.memBytes() / 1024;
    expectRefError(cfg, igAddr(kIgDefault, cfg.memBytes() + 64),
                   strprintf("access at 0x%06x beyond available memory "
                             "(%u KB) (thread 0)",
                             cfg.memBytes() + 64, kb));
}

TEST(GuestErrors, ScratchWithNoWaysTextIsFrontendIndependent)
{
    expectRefError(ChipConfig{}, igAddr(igScratch(1), 0x40),
                   "scratchpad access to cache 1 with no partitioned ways "
                   "(thread 0)");
}

TEST(GuestErrors, DisabledCacheScratchTextIsFrontendIndependent)
{
    ChipConfig cfg;
    cfg.dcacheScratchWays = 1;
    cfg.fault.disabledDcaches = {1};
    expectRefError(cfg, igAddr(igScratch(1), 0x40),
                   "scratchpad access to disabled cache 1 (thread 0)");
}
