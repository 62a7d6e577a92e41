/**
 * @file
 * Profiling-subsystem tests: the guest-visible counter SPR file, the
 * rdcounter pseudo-op, the PC-sampling profiler and its exports, the
 * memory-system heatmap, and the epoch-sampler / empty-trace edge
 * cases fixed alongside them.
 *
 * The central invariants: profiling never changes simulated timing,
 * every profiler output is byte-deterministic (any --jobs, any run),
 * and the heatmap's access matrix sums to the banks' own counters.
 */

#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "arch/chip.h"
#include "arch/thread_unit.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/trace.h"
#include "exec/engine.h"
#include "isa/assembler.h"
#include "isa/builder.h"
#include "isa/disassembler.h"
#include "workloads/stream.h"

using namespace cyclops;
using namespace cyclops::arch;
using namespace cyclops::workloads;

namespace
{

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Run a builder program on @p threads interpreter threads. */
void
runIsa(Chip &chip, const isa::Program &prog, u32 threads)
{
    chip.loadProgram(prog);
    for (ThreadId t = 0; t < threads; ++t) {
        auto unit = std::make_unique<ThreadUnit>(t, chip, prog.entry);
        unit->setReg(4, t);
        chip.setUnit(t, std::move(unit));
        chip.activate(t);
    }
    ASSERT_EQ(chip.run(10'000'000), RunExit::AllHalted);
}

/** A small kernel with loads, stores and FP work in a loop. */
isa::Program
busyProgram(u32 iters)
{
    isa::ProgramBuilder b;
    const u32 buf = b.allocData(4096, 64);
    b.defineSymbol("busy_setup", b.here());
    b.slli(20, 4, 7);
    b.li(10, igAddr(kIgDefault, buf));
    b.add(10, 10, 20);
    b.li(12, s32(iters));
    auto loop = b.newLabel();
    b.bind(loop);
    b.defineSymbol("busy_loop", b.here());
    b.ld(32, 0, 10);
    b.fmuld(34, 32, 32);
    b.sd(34, 8, 10);
    b.addi(12, 12, -1);
    b.bne(12, 0, loop);
    b.halt();
    return b.finish();
}

} // namespace

// ---------------------------------------------------------------------------
// Counter SPR file and the rdcounter pseudo-op
// ---------------------------------------------------------------------------

TEST(Profiler, CounterSprsReadableFromIsaFrontend)
{
    // Each counter is read into a register by the guest itself at the
    // end of the run; the values must match the unit's own statistics.
    isa::ProgramBuilder b;
    const u32 buf = b.allocData(1024, 64);
    b.li(10, igAddr(kIgDefault, buf));
    b.li(12, 50);
    auto loop = b.newLabel();
    b.bind(loop);
    b.lw(5, 0, 10);
    b.sw(5, 4, 10);
    b.addi(12, 12, -1);
    b.bne(12, 0, loop);
    for (u32 k = 0; k < isa::kNumCounterSprs; ++k)
        b.rdcounter(u8(20 + k), u8(k));
    b.halt();

    Chip chip;
    runIsa(chip, b.finish(), 1);
    const auto *u = static_cast<const ThreadUnit *>(chip.unit(0));
    // The guest read each counter before the later ones (and before
    // halt), so the register snapshots are lower bounds that must not
    // exceed the final statistics.
    const u32 cycles = u->reg(20), instret = u->reg(21);
    const u32 dhit = u->reg(22), dmiss = u->reg(23);
    EXPECT_GT(cycles, 0u);
    EXPECT_LE(cycles, u32(u->chargedCycles()));
    EXPECT_GT(instret, 0u);
    EXPECT_LE(instret, u32(u->instructions()));
    EXPECT_GT(dhit + dmiss, 0u);
    EXPECT_LE(dhit, u32(u->dcacheHits()));
    EXPECT_LE(dmiss, u32(u->dcacheMisses()));
    // This single-threaded integer kernel never arbitrates for the
    // FPU or waits at a barrier.
    EXPECT_EQ(u->reg(26), 0u);
    EXPECT_EQ(u->reg(27), 0u);
}

TEST(Profiler, UnknownSprReadsZeroIsaFrontend)
{
    // SPRs 6 and 7 identify the chip in a multi-chip system (a
    // standalone chip is chip 0 of 1); reserved numbers past the
    // counter file read as zero — the documented defined path.
    isa::ProgramBuilder b;
    b.li(20, 0xdead);
    b.li(21, 0xdead);
    b.li(22, 0xdead);
    b.mfspr(20, isa::kSprChipId);
    b.mfspr(21, isa::kSprNumChips);
    b.mfspr(22, 100);
    b.rdcounter(23, 1); // a valid read right next to the reserved ones
    b.halt();

    Chip chip;
    runIsa(chip, b.finish(), 1);
    const auto *u = static_cast<const ThreadUnit *>(chip.unit(0));
    EXPECT_EQ(u->reg(20), 0u);
    EXPECT_EQ(u->reg(21), 1u);
    EXPECT_EQ(u->reg(22), 0u);
    EXPECT_GT(u->reg(23), 0u); // instret
}

TEST(Profiler, CounterSprsReadableFromExecFrontend)
{
    // The exec frontend has no fetch stream, but the SPR decode is
    // shared: readSpr must serve the counter file from GuestUnits too.
    Chip chip;
    exec::GuestEngine engine(chip);
    const Addr ea = igAddr(kIgDefault, engine.heap().alloc(1024, 64));
    struct Body
    {
        static exec::GuestTask
        run(exec::GuestCtx &ctx, Addr ea)
        {
            for (u32 i = 0; i < 32; ++i)
                co_await ctx.load(ea + 8 * (i % 16), 8);
            co_await ctx.alu(5);
        }
    };
    engine.spawn(2, [&](exec::GuestCtx &ctx) {
        return Body::run(ctx, ea);
    });
    ASSERT_EQ(engine.run(1'000'000), RunExit::AllHalted);

    EXPECT_GT(chip.readSpr(0, isa::kSprCntCycles), 0u);
    EXPECT_GT(chip.readSpr(0, isa::kSprCntInstret), 0u);
    EXPECT_EQ(chip.readSpr(0, isa::kSprCntDcacheHit) +
                  chip.readSpr(0, isa::kSprCntDcacheMiss),
              32u);
    // Chip-identity SPRs (standalone chip: id 0 of 1) and reserved
    // numbers decode here as well.
    EXPECT_EQ(chip.readSpr(0, isa::kSprChipId), 0u);
    EXPECT_EQ(chip.readSpr(0, isa::kSprNumChips), 1u);
    EXPECT_EQ(chip.readSpr(0, 1000), 0u);
    // A thread with no unit installed reads zero from every counter.
    EXPECT_EQ(chip.readSpr(100, isa::kSprCntInstret), 0u);
}

TEST(Profiler, RdcounterAssemblesAndRoundTrips)
{
    const isa::AsmResult byName = isa::assemble(
        "start:\n"
        "  rdcounter r3, cycles\n"
        "  rdcounter r4, dmiss\n"
        "  halt\n");
    ASSERT_TRUE(byName.ok) << byName.error;
    const isa::AsmResult byIndex = isa::assemble(
        "start:\n"
        "  rdcounter r3, 0\n"
        "  rdcounter r4, 3\n"
        "  halt\n");
    ASSERT_TRUE(byIndex.ok) << byIndex.error;
    EXPECT_EQ(byName.program.text, byIndex.program.text);

    // The disassembler prints the named pseudo-op form, which must
    // reassemble to the identical encoding.
    EXPECT_EQ(isa::disassembleWord(byName.program.text[0]),
              "rdcounter r3, cycles");
    EXPECT_EQ(isa::disassembleWord(byName.program.text[1]),
              "rdcounter r4, dmiss");

    // Unknown counter names and out-of-range indices are errors.
    EXPECT_FALSE(isa::assemble("rdcounter r3, bogus\n").ok);
    EXPECT_FALSE(isa::assemble("rdcounter r3, 8\n").ok);
}

TEST(Profiler, CounterNameTable)
{
    EXPECT_STREQ(isa::counterName(isa::kSprCntCycles), "cycles");
    EXPECT_STREQ(isa::counterName(isa::kSprCntBarrier), "barrier");
    unsigned spr = 0;
    EXPECT_TRUE(isa::counterFromName("imiss", &spr));
    EXPECT_EQ(spr, unsigned(isa::kSprCntIcacheMiss));
    EXPECT_FALSE(isa::counterFromName("nope", &spr));
}

// ---------------------------------------------------------------------------
// PC-sampling profiler
// ---------------------------------------------------------------------------

TEST(Profiler, SamplesLandInTheHotLoop)
{
    ChipConfig cfg;
    cfg.obs.profInterval = 16;
    Chip chip(cfg);
    runIsa(chip, busyProgram(400), 2);

    const Profiler &prof = chip.profiler();
    ASSERT_TRUE(prof.enabled());
    EXPECT_GT(prof.totalSamples(), 0u);
    // Nearly all time is the loop; the sample count tracks the run
    // length (every interval boundary while units are live samples
    // every live unit exactly once, weighted across fast-forwards).
    EXPECT_GE(prof.totalSamples(), u64(chip.now()) / 16 / 2);
}

TEST(Profiler, ProfilingDoesNotChangeTiming)
{
    StreamConfig cfg;
    cfg.kernel = StreamKernel::Add;
    cfg.threads = 8;
    cfg.elementsPerThread = 120;

    const StreamResult plain = runStream(cfg, ChipConfig{});
    ChipConfig profiled;
    profiled.obs.profInterval = 32;
    const StreamResult prof = runStream(cfg, profiled);

    EXPECT_EQ(plain.iterationCycles, prof.iterationCycles);
    EXPECT_EQ(plain.simCycles, prof.simCycles);
    EXPECT_EQ(plain.instructions, prof.instructions);
    for (u32 c = 0; c <= kNumCycleCats; ++c)
        EXPECT_EQ(plain.attr.value(c), prof.attr.value(c))
            << kCycleCatNames[c];
}

TEST(Profiler, StreamProfileTopSymbolIsKernelLoop)
{
    StreamConfig cfg;
    cfg.kernel = StreamKernel::Triad;
    cfg.threads = 4;
    cfg.elementsPerThread = 256;
    ChipConfig chipCfg;
    chipCfg.obs.profInterval = 64;
    chipCfg.obs.profOut = tempPath("prof_stream_a.json");
    const StreamResult result = runStream(cfg, chipCfg);
    EXPECT_TRUE(result.verified);

    const std::string json = slurp(chipCfg.obs.profOut);
    // The report is sorted hottest-first: the triad inner loop must
    // lead it (the acceptance criterion for the whole profiler).
    const size_t symbols = json.find("\"symbols\": [");
    ASSERT_NE(symbols, std::string::npos);
    const size_t first = json.find("\"symbol\": \"", symbols);
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(json.substr(first, 36).find("triad_kernel"), 11u)
        << json.substr(first, 64);

    const std::string folded =
        slurp(chipCfg.obs.profOut + ".folded");
    EXPECT_NE(folded.find(";triad_kernel "), std::string::npos);
    EXPECT_EQ(folded.rfind("tu", 0), 0u);

    // Byte-determinism: an identical run writes identical files.
    ChipConfig again = chipCfg;
    again.obs.profOut = tempPath("prof_stream_b.json");
    runStream(cfg, again);
    EXPECT_EQ(json, slurp(again.obs.profOut));
    EXPECT_EQ(folded, slurp(again.obs.profOut + ".folded"));
    EXPECT_EQ(slurp(chipCfg.obs.profOut + ".heatmap.csv"),
              slurp(again.obs.profOut + ".heatmap.csv"));
}

// The TSan preset runs every Profiler test: this one drives per-chip
// profilers from SimPool worker threads, where shared profiler state
// would race, and asserts outputs are identical at any --jobs.
TEST(Profiler, OutputsIdenticalAcrossJobs)
{
    const std::vector<u32> sizes = {64, 96, 128, 160};
    auto run = [&](u32 size) {
        StreamConfig cfg;
        cfg.kernel = StreamKernel::Copy;
        cfg.threads = 4;
        cfg.elementsPerThread = size;
        ChipConfig chipCfg;
        chipCfg.obs.profInterval = 32;
        chipCfg.obs.tag = strprintf("e%u", size);
        chipCfg.obs.profOut = tempPath("prof_sweep_%t.json");
        return runStream(cfg, chipCfg);
    };
    (void)parallelSweep(sizes, 1, run);
    std::vector<std::string> serial;
    for (u32 size : sizes)
        serial.push_back(
            slurp(tempPath(strprintf("prof_sweep_e%u.json", size))) +
            slurp(tempPath(
                strprintf("prof_sweep_e%u.json.folded", size))) +
            slurp(tempPath(
                strprintf("prof_sweep_e%u.json.heatmap.csv", size))));
    (void)parallelSweep(sizes, 4, run);
    for (size_t i = 0; i < sizes.size(); ++i) {
        const std::string parallel =
            slurp(tempPath(
                strprintf("prof_sweep_e%u.json", sizes[i]))) +
            slurp(tempPath(
                strprintf("prof_sweep_e%u.json.folded", sizes[i]))) +
            slurp(tempPath(
                strprintf("prof_sweep_e%u.json.heatmap.csv", sizes[i])));
        EXPECT_EQ(serial[i], parallel) << "size " << sizes[i];
    }
}

// ---------------------------------------------------------------------------
// Memory-system heatmap
// ---------------------------------------------------------------------------

TEST(Profiler, HeatmapColumnsSumToBankAccesses)
{
    ChipConfig cfg;
    cfg.obs.profInterval = 64; // enables the heatmap with the profiler
    Chip chip(cfg);
    runIsa(chip, busyProgram(300), 4);

    const MemSystem &ms = chip.memsys();
    ASSERT_TRUE(ms.heatmapEnabled());
    const auto &access = ms.heatAccess();
    const auto &conflict = ms.heatConflict();
    const u32 caches = cfg.numCaches();
    ASSERT_EQ(access.size(), size_t(caches) * cfg.numBanks);

    u64 matrixTotal = 0;
    for (BankId bank = 0; bank < cfg.numBanks; ++bank) {
        u64 col = 0;
        for (u32 q = 0; q < caches; ++q) {
            col += access[size_t(q) * cfg.numBanks + bank];
            EXPECT_LE(conflict[size_t(q) * cfg.numBanks + bank],
                      access[size_t(q) * cfg.numBanks + bank]);
        }
        // Every bank reservation flows through the heatmap: the
        // matrix column equals the bank's own access counter.
        EXPECT_EQ(col, ms.bank(bank).accesses()) << "bank " << bank;
        matrixTotal += col;
    }
    EXPECT_GT(matrixTotal, 0u);

    // Interest-group breakdown: this program uses only the default
    // (All) class, and scratch-free lookups split into hits+misses.
    const u64 *acc = ms.igAccesses();
    const u64 *hit = ms.igHits();
    const u64 *miss = ms.igMisses();
    for (u32 c = 0; c < MemSystem::kNumIgClasses; ++c) {
        EXPECT_EQ(acc[c], hit[c] + miss[c]) << "class " << c;
        if (c != u32(IgClass::All)) {
            EXPECT_EQ(acc[c], 0u) << "class " << c;
        }
    }
    EXPECT_GT(acc[u32(IgClass::All)], 0u);
}

TEST(Profiler, HeatmapOffByDefault)
{
    Chip chip;
    runIsa(chip, busyProgram(50), 1);
    EXPECT_FALSE(chip.memsys().heatmapEnabled());
    EXPECT_FALSE(chip.profiler().enabled());
    EXPECT_TRUE(chip.memsys().heatAccess().empty());
}

// ---------------------------------------------------------------------------
// STREAM guest-side counter table
// ---------------------------------------------------------------------------

TEST(Profiler, StreamCounterTableSplitsSetupFromKernel)
{
    StreamConfig cfg;
    cfg.kernel = StreamKernel::Triad;
    cfg.threads = 4;
    cfg.elementsPerThread = 128;
    cfg.counterTable = true;
    const StreamResult result = runStream(cfg, ChipConfig{});
    EXPECT_TRUE(result.verified);

    constexpr u32 kCycles = 0, kInstret = 1, kDhit = 2, kDmiss = 3;
    // The kernel region dominates: it runs 4 iterations over every
    // element while setup is a dozen instructions.
    EXPECT_GT(result.kernelCounters[kInstret],
              10 * result.setupCounters[kInstret]);
    EXPECT_GT(result.kernelCounters[kCycles], 0u);
    EXPECT_GT(result.kernelCounters[kDhit] +
                  result.kernelCounters[kDmiss],
              0u);

    ASSERT_FALSE(result.counterTable.empty());
    EXPECT_NE(result.counterTable.find("counter"), std::string::npos);
    EXPECT_NE(result.counterTable.find("cycles"), std::string::npos);
    EXPECT_NE(result.counterTable.find("kernel"), std::string::npos);

    // The instrumentation runs outside the timed loop, so the
    // measured steady-state iteration stays essentially unchanged
    // (the snapshot code does shift every thread's phase against the
    // round-robin arbiters, which may move timing by a few cycles).
    StreamConfig bare = cfg;
    bare.counterTable = false;
    const StreamResult plain = runStream(bare, ChipConfig{});
    EXPECT_NEAR(double(plain.iterationCycles),
                double(result.iterationCycles),
                0.01 * double(plain.iterationCycles));
    EXPECT_TRUE(plain.counterTable.empty());
}

// ---------------------------------------------------------------------------
// Epoch sampler edge cases (satellite)
// ---------------------------------------------------------------------------

TEST(Profiler, EpochSamplerIntervalLongerThanRun)
{
    Counter work;
    StatGroup stats;
    stats.addCounter("work", &work);
    EpochSampler sampler;
    sampler.configure(&stats, 1000);
    work += 3;
    sampler.maybeSample(211); // no boundary crossed
    EXPECT_EQ(sampler.rows(), 0u);
    sampler.finalize(211);
    ASSERT_EQ(sampler.rows(), 1u); // final epoch flushed...
    EXPECT_EQ(sampler.sampleCycles()[0], 211u);
    EXPECT_EQ(sampler.value(0, 0), 3u);
    sampler.finalize(211);
    EXPECT_EQ(sampler.rows(), 1u); // ...exactly once
}

TEST(Profiler, EpochSamplerEndExactlyOnBoundary)
{
    Counter work;
    StatGroup stats;
    stats.addCounter("work", &work);
    EpochSampler sampler;
    sampler.configure(&stats, 100);
    sampler.maybeSample(200);
    ASSERT_EQ(sampler.rows(), 2u);
    sampler.finalize(200); // boundary row already covers the end
    EXPECT_EQ(sampler.rows(), 2u);
    EXPECT_EQ(sampler.sampleCycles().back(), 200u);
}

TEST(Profiler, EpochSamplerZeroLengthRun)
{
    Counter work;
    StatGroup stats;
    stats.addCounter("work", &work);
    EpochSampler sampler;
    sampler.configure(&stats, 100);
    sampler.finalize(0);
    ASSERT_EQ(sampler.rows(), 1u);
    EXPECT_EQ(sampler.sampleCycles()[0], 0u);
    sampler.finalize(0);
    EXPECT_EQ(sampler.rows(), 1u);
}

TEST(Profiler, EpochSamplerFinalRowSurvivesRowCap)
{
    Counter work;
    StatGroup stats;
    stats.addCounter("work", &work);
    EpochSampler sampler;
    sampler.configure(&stats, 1);
    sampler.maybeSample(EpochSampler::kMaxRows + 10);
    EXPECT_EQ(sampler.rows(), EpochSampler::kMaxRows);
    EXPECT_EQ(sampler.droppedRows(), 10u);
    work += 7;
    sampler.finalize(EpochSampler::kMaxRows + 20);
    // The end-of-run row is forced past the cap so a capped series
    // still ends with the final totals — and only one such row.
    ASSERT_EQ(sampler.rows(), EpochSampler::kMaxRows + 1);
    EXPECT_EQ(sampler.sampleCycles().back(),
              Cycle(EpochSampler::kMaxRows + 20));
    EXPECT_EQ(sampler.value(sampler.rows() - 1, 0), 7u);
    sampler.finalize(EpochSampler::kMaxRows + 20);
    EXPECT_EQ(sampler.rows(), EpochSampler::kMaxRows + 1);
}

// ---------------------------------------------------------------------------
// Empty-trace export (satellite)
// ---------------------------------------------------------------------------

TEST(Profiler, EmptyTracerExportsValidChromeJson)
{
    // A tracer that recorded nothing must still write valid Chrome
    // trace JSON (metadata only) — Perfetto accepts it and so does
    // `tools/cyclops_check.py trace`.
    Tracer tracer;
    tracer.configure(kTraceAll, 256);
    ASSERT_TRUE(tracer.enabled());
    EXPECT_EQ(tracer.size(), 0u);
    const std::string path = tempPath("prof_empty_trace.json");
    tracer.writeChromeJson(path, 4);

    const std::string json = slurp(path);
    EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_EQ(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_EQ(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_EQ(json.back(), '\n');
    // Structurally closed: the object ends with its closing brace.
    EXPECT_NE(json.find("}\n"), std::string::npos);
}
