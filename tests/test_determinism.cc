/**
 * @file
 * Determinism regression tests: the safety net for the host-parallel
 * sweep runner, the timing-core hot-path optimizations and the host
 * thread primitives (SimPool, ShardCrew) they build on.
 *
 * A simulation point must be a pure function of its configuration —
 * same cycle counts, instruction counts and statistics on every run,
 * whether executed serially or from a SimPool worker thread. Any
 * hidden shared mutable state (stats registries, logging, caches of
 * decoded state) breaks one of these tests.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <gtest/gtest.h>
#include <stdexcept>
#include <thread>

#include "common/parallel.h"
#include "workloads/multichip.h"
#include "workloads/splash.h"
#include "workloads/stream.h"

using namespace cyclops;
using namespace cyclops::workloads;

namespace
{

StreamConfig
streamPoint(u32 threads, u32 ept)
{
    StreamConfig cfg;
    cfg.kernel = StreamKernel::Triad;
    cfg.threads = threads;
    cfg.elementsPerThread = ept;
    return cfg;
}

void
expectSameStream(const StreamResult &a, const StreamResult &b)
{
    EXPECT_EQ(a.iterationCycles, b.iterationCycles);
    EXPECT_EQ(a.simCycles, b.simCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.bytesPerIteration, b.bytesPerIteration);
    EXPECT_EQ(a.verified, b.verified);
}

void
expectSameSplash(const SplashResult &a, const SplashResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.runCycles, b.runCycles);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.localHits, b.localHits);
    EXPECT_EQ(a.remoteHits, b.remoteHits);
    EXPECT_EQ(a.localMisses, b.localMisses);
    EXPECT_EQ(a.remoteMisses, b.remoteMisses);
    EXPECT_EQ(a.bankBusyCycles, b.bankBusyCycles);
    EXPECT_EQ(a.portWaitCycles, b.portWaitCycles);
    EXPECT_EQ(a.verified, b.verified);
}

void
expectSameMultiChip(const MultiChipResult &a, const MultiChipResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.bytesMoved, b.bytesMoved);
    EXPECT_EQ(a.queueCycles, b.queueCycles);
    EXPECT_EQ(a.flitsInjected, b.flitsInjected);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.verified, b.verified);
}

} // namespace

TEST(Determinism, StreamRepeatsExactly)
{
    const StreamConfig cfg = streamPoint(16, 400);
    const StreamResult first = runStream(cfg);
    const StreamResult second = runStream(cfg);
    EXPECT_TRUE(first.verified);
    expectSameStream(first, second);
}

TEST(Determinism, StreamTriadPinned)
{
    // Absolute pins of the single-chip ISA path, not run-vs-run: a
    // host-side refactor of the thread unit, the D-cache or the cycle
    // engine that shifts results the same way on every run passes
    // StreamRepeatsExactly but not this. The counter table adds the
    // guest's own view of the D-cache (hit/miss counter SPRs).
    StreamConfig cfg = streamPoint(32, 400);
    cfg.counterTable = true;
    const StreamResult r = runStream(cfg);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.simCycles, 88853u);
    EXPECT_EQ(r.instructions, 695552u);
    EXPECT_EQ(r.iterationCycles, 14350u);
    // run, icacheMiss, dcacheMiss, bankContention, fpuArb, barrierWait,
    // remoteWait, sleep.
    const u64 attr[arch::kNumCycleCats + 1] = {
        514496, 1382, 866914, 24566, 461853, 0, 0, 5654245};
    for (u32 i = 0; i <= arch::kNumCycleCats; ++i)
        EXPECT_EQ(r.attr.value(i), attr[i]) << arch::kCycleCatNames[i];
    const u32 hit = isa::kSprCntDcacheHit - isa::kSprCntBase;
    const u32 miss = isa::kSprCntDcacheMiss - isa::kSprCntBase;
    EXPECT_EQ(r.kernelCounters[hit], 147357u);
    EXPECT_EQ(r.kernelCounters[miss], 6499u);
}

TEST(Determinism, FftRepeatsExactly)
{
    const SplashResult first =
        runFft(8, 1024, BarrierKind::Hw, ChipConfig{});
    const SplashResult second =
        runFft(8, 1024, BarrierKind::Hw, ChipConfig{});
    EXPECT_TRUE(first.verified);
    expectSameSplash(first, second);
}

TEST(Determinism, ParallelSweepMatchesSerial)
{
    // The same points through a 4-thread pool and serially must agree
    // bit for bit, in input order.
    std::vector<u32> sizes = {112, 200, 400, 600, 256, 333};
    auto run = [&](u32 size) { return runStream(streamPoint(8, size)); };

    const std::vector<StreamResult> serial =
        parallelSweep(sizes, 1, run);
    const std::vector<StreamResult> parallel =
        parallelSweep(sizes, 4, run);

    ASSERT_EQ(serial.size(), sizes.size());
    ASSERT_EQ(parallel.size(), sizes.size());
    for (size_t i = 0; i < sizes.size(); ++i)
        expectSameStream(serial[i], parallel[i]);
}

TEST(Determinism, MultiChipHaloRepeatsExactly)
{
    // A 2x2x1 torus halo exchange across the fabric: the fingerprint
    // hashes every chip's window memory plus the fabric counters, so
    // equality here is byte-identity of the whole multi-chip run.
    MultiChipConfig cfg;
    cfg.words = 16;
    cfg.iters = 2;
    const MultiChipResult first = runHaloExchange(cfg);
    const MultiChipResult second = runHaloExchange(cfg);
    EXPECT_TRUE(first.verified);
    expectSameMultiChip(first, second);
}

TEST(Determinism, MultiChipHaloPinned)
{
    // Absolute pins, not run-vs-run: a host-side refactor of the
    // fabric or the System's delivery queues that shifts results the
    // same way on every run passes the *RepeatsExactly tests but not
    // this one. 680 words x 4 iterations queue hundreds of posted
    // stores per epoch, so the delivery queues run deep.
    MultiChipConfig cfg;
    cfg.words = 680;
    cfg.iters = 4;
    const MultiChipResult r = runHaloExchange(cfg);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.exitReason, arch::RunExitReason::AllHalted);
    EXPECT_EQ(r.cycles, 91512u);
    EXPECT_EQ(r.instructions, 113324u);
    EXPECT_EQ(r.fingerprint, 0xac45c7771046c69dull);
    EXPECT_EQ(r.flitsInFlight, 0u);
}

TEST(Determinism, MultiChipHaloFlakyLinkPinned)
{
    // The same exchange over one 5% flaky link: retransmissions push
    // deliveries out of injection order and into the far future, and
    // the dropped-flit ledger fills.
    MultiChipConfig cfg;
    cfg.words = 680;
    cfg.iters = 4;
    net::LinkFault flaky;
    flaky.src = 0;
    flaky.dst = 1;
    flaky.kind = net::LinkFaultKind::Flaky;
    flaky.flakyPpm = 50'000;
    cfg.faults.links = {flaky};
    const MultiChipResult r = runHaloExchange(cfg);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.exitReason, arch::RunExitReason::AllHalted);
    EXPECT_GT(r.retransmits, 0u);
    EXPECT_EQ(r.cycles, 106743u);
    EXPECT_EQ(r.instructions, 185468u);
    EXPECT_EQ(r.fingerprint, 0xddde39e2cad9ae06ull);
    EXPECT_EQ(r.flitsDropped, 2408u);
    EXPECT_EQ(r.flitsInFlight, 0u);
}

TEST(Determinism, MultiChipStreamRepeatsExactly)
{
    // Distributed STREAM: every chip remote-loads its neighbor's b[],
    // so the fingerprint also covers the round-trip load path.
    MultiChipConfig cfg;
    cfg.words = 16;
    cfg.iters = 2;
    const MultiChipResult first = runDistributedStream(cfg);
    const MultiChipResult second = runDistributedStream(cfg);
    EXPECT_TRUE(first.verified);
    expectSameMultiChip(first, second);
}

TEST(Determinism, MultiChipSweepMatchesSerial)
{
    // Whole multi-chip systems through the host-parallel sweep runner:
    // job count must not leak into any fabric timing.
    std::vector<u32> words = {8, 12, 16, 24};
    auto run = [&](u32 w) {
        MultiChipConfig cfg;
        cfg.words = w;
        return runHaloExchange(cfg);
    };
    const std::vector<MultiChipResult> serial =
        parallelSweep(words, 1, run);
    const std::vector<MultiChipResult> parallel =
        parallelSweep(words, 4, run);
    for (size_t i = 0; i < words.size(); ++i) {
        EXPECT_TRUE(serial[i].verified) << "point " << i;
        expectSameMultiChip(serial[i], parallel[i]);
    }
}

TEST(Determinism, ParallelSplashSweepMatchesSerial)
{
    std::vector<u32> threads = {1, 2, 4, 8};
    auto run = [&](u32 t) {
        return runFft(t, 1024, BarrierKind::SwTree, ChipConfig{});
    };
    const std::vector<SplashResult> serial =
        parallelSweep(threads, 1, run);
    const std::vector<SplashResult> parallel =
        parallelSweep(threads, 3, run);
    for (size_t i = 0; i < threads.size(); ++i)
        expectSameSplash(serial[i], parallel[i]);
}

TEST(SimPool, CoversEveryIndexExactlyOnce)
{
    SimPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    constexpr size_t kCount = 10'000;
    std::vector<std::atomic<u32>> hits(kCount);
    pool.forEach(kCount, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(SimPool, ReusableAcrossSweeps)
{
    SimPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<u64> sum{0};
        pool.forEach(1000, [&](size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 1000ull * 999 / 2);
    }
}

TEST(SimPool, SerialPoolRunsInline)
{
    SimPool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    const auto caller = std::this_thread::get_id();
    bool sameThread = true;
    pool.forEach(64, [&](size_t) {
        sameThread = sameThread && std::this_thread::get_id() == caller;
    });
    EXPECT_TRUE(sameThread);
}

// Resolves counts only: no pool is built, so the huge request starts
// no threads.
TEST(SimPool, ResolveJobs)
{
    const unsigned hw = std::thread::hardware_concurrency();
    const u32 all = hw ? u32(hw) : 1u;
    EXPECT_EQ(SimPool::resolveJobs(0), all);
    EXPECT_EQ(SimPool::resolveJobs(1), 1u);
    EXPECT_EQ(SimPool::resolveJobs(5), std::min(5u, all));
    EXPECT_EQ(SimPool::resolveJobs(UINT32_MAX), all);
}

TEST(ShardCrew, RunsEveryWorkerExactlyOnce)
{
    ShardCrew crew(4);
    EXPECT_EQ(crew.workers(), 4u);
    std::vector<std::atomic<u32>> hits(4);
    for (int epoch = 0; epoch < 100; ++epoch)
        crew.run([&](u32 w) {
            hits[w].fetch_add(1, std::memory_order_relaxed);
        });
    for (u32 w = 0; w < 4; ++w)
        EXPECT_EQ(hits[w].load(), 100u) << "worker " << w;
}

TEST(ShardCrew, PublishesWritesAcrossEpochs)
{
    // Writes by worker w in epoch e must be visible to every worker
    // in epoch e+1.
    ShardCrew crew(4);
    std::vector<u64> slots(4, 0);
    for (u64 epoch = 1; epoch <= 200; ++epoch) {
        crew.run([&](u32 w) { slots[w] = epoch; });
        crew.run([&](u32 w) {
            for (u32 o = 0; o < 4; ++o)
                if (slots[o] != epoch)
                    ADD_FAILURE() << "worker " << w << " saw stale "
                                  << slots[o] << " at epoch " << epoch;
        });
    }
}

TEST(ShardCrew, SingleWorkerRunsInline)
{
    ShardCrew crew(1);
    const auto caller = std::this_thread::get_id();
    bool sameThread = false;
    crew.run([&](u32 w) {
        sameThread = w == 0 && std::this_thread::get_id() == caller;
    });
    EXPECT_TRUE(sameThread);
}

TEST(ShardCrew, RethrowsWorkerException)
{
    ShardCrew crew(2);
    EXPECT_THROW(crew.run([&](u32 w) {
        if (w == 1)
            throw std::runtime_error("shard failure");
    }),
                 std::runtime_error);
    // The crew must stay usable after an exceptional epoch.
    std::atomic<u32> ran{0};
    crew.run([&](u32) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 2u);
}
