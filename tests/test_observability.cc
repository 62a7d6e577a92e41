/**
 * @file
 * Observability-layer tests: cycle attribution, the event tracer, the
 * epoch sampler and the stats registry's error paths.
 *
 * The central invariant: every TU cycle is charged to exactly one
 * category, so per-TU categories plus sleep sum to the chip's total
 * simulated cycles — on both frontends — and none of the observability
 * features may change simulated timing.
 */

#include <cstdio>
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
#include "isa/builder.h"
#include "workloads/splash.h"
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

/** Every installed unit's charge window must be gap-free and the
 *  per-TU breakdown must cover every simulated cycle. */
void
expectAttributionCovers(const Chip &chip)
{
    const ChipConfig &cfg = chip.config();
    CycleBreakdown total;
    for (ThreadId tid = 0; tid < cfg.numThreads; ++tid) {
        const CycleBreakdown b = chip.attribution(tid);
        EXPECT_EQ(b.total(), chip.now()) << "tid " << tid;
        total.add(b);
        if (const Unit *unit = chip.unit(tid)) {
            EXPECT_EQ(b.charged(), unit->chargedCycles());
            if (unit->chargedCycles()) {
                EXPECT_EQ(unit->lastChargeEnd() - unit->firstChargeAt(),
                          unit->chargedCycles())
                    << "charge window of tid " << tid << " has gaps";
            }
        }
    }
    EXPECT_EQ(total.total(), u64(chip.now()) * cfg.numThreads);
    const CycleBreakdown chipWide = chip.chipAttribution();
    EXPECT_EQ(chipWide.total(), total.total());
    EXPECT_EQ(chipWide.charged(), total.charged());
}

} // namespace

// ---------------------------------------------------------------------------
// Cycle attribution
// ---------------------------------------------------------------------------

TEST(Observability, IsaAttributionSumsToTotalCycles)
{
    // Four interpreter threads with loads, stores, FP and integer
    // multiply, so several categories are exercised at once.
    Chip chip;
    isa::ProgramBuilder b;
    const u32 buf = b.allocData(1024, 64);
    b.slli(20, 4, 6);
    b.li(10, igAddr(kIgDefault, buf));
    b.add(10, 10, 20);
    b.li(12, 200);
    auto loop = b.newLabel();
    b.bind(loop);
    b.lw(5, 0, 10);
    b.mul(6, 5, 5);
    b.sw(6, 4, 10);
    b.addi(12, 12, -1);
    b.bne(12, 0, loop);
    b.halt();
    const isa::Program prog = b.finish();
    chip.loadProgram(prog);
    for (ThreadId t = 0; t < 4; ++t) {
        auto unit = std::make_unique<ThreadUnit>(t, chip, prog.entry);
        unit->setReg(4, t);
        chip.setUnit(t, std::move(unit));
        chip.activate(t);
    }
    ASSERT_EQ(chip.run(10'000'000), RunExit::AllHalted);

    expectAttributionCovers(chip);
    const CycleBreakdown b0 = chip.attribution(0);
    EXPECT_GT(b0[CycleCat::Run], 0u);
    EXPECT_GT(b0[CycleCat::DcacheMiss], 0u);
    // Figure 7's old reporting path must agree with the attribution.
    EXPECT_EQ(chip.unit(0)->runCycles(), b0[CycleCat::Run]);
    EXPECT_EQ(chip.unit(0)->stallCycles(),
              b0.charged() - b0[CycleCat::Run]);
}

TEST(Observability, ExecAttributionSumsToTotalCycles)
{
    // Exec frontend with hardware barriers: run, d-cache and
    // barrier-wait categories all get charged.
    Chip chip;
    exec::GuestEngine engine(chip);
    const Addr ea = igAddr(kIgDefault, engine.heap().alloc(4096, 64));
    struct Body
    {
        static exec::GuestTask
        run(exec::GuestCtx &ctx, Addr ea, u32 index)
        {
            for (u32 round = 0; round < 8; ++round) {
                for (u32 i = 0; i < 16 + 8 * index; ++i)
                    co_await ctx.load(ea + 64 * i, 8);
                co_await ctx.alu(10);
                co_await ctx.hwBarrier(round & 1);
            }
        }
    };
    engine.spawn(8, [&](exec::GuestCtx &ctx) {
        return Body::run(ctx, ea, ctx.index());
    });
    ASSERT_EQ(engine.run(10'000'000), RunExit::AllHalted);

    expectAttributionCovers(chip);
    const CycleBreakdown sum = chip.chipAttribution();
    EXPECT_GT(sum[CycleCat::Run], 0u);
    EXPECT_GT(sum[CycleCat::DcacheMiss], 0u);
    EXPECT_GT(sum[CycleCat::BarrierWait], 0u);
}

TEST(Observability, SplashResultCarriesAttribution)
{
    const SplashResult result =
        runFft(4, 256, BarrierKind::SwTree, ChipConfig{});
    EXPECT_TRUE(result.verified);
    // The breakdown is the Figure 7 split: run == attributed run,
    // stall == everything else charged.
    EXPECT_EQ(result.runCycles, result.attr[CycleCat::Run]);
    EXPECT_EQ(result.stallCycles,
              result.attr.charged() - result.attr[CycleCat::Run]);
    EXPECT_GT(result.attr[CycleCat::BarrierWait], 0u);
}

// ---------------------------------------------------------------------------
// Event tracing
// ---------------------------------------------------------------------------

TEST(Observability, TraceJsonWellFormedAndDeterministic)
{
    StreamConfig cfg;
    cfg.kernel = StreamKernel::Triad;
    cfg.threads = 4;
    cfg.elementsPerThread = 64;

    ChipConfig chipCfg;
    chipCfg.obs.traceCats = kTraceAll;
    chipCfg.obs.traceOut = tempPath("obs_trace_a.json");
    const StreamResult first = runStream(cfg, chipCfg);
    EXPECT_TRUE(first.verified);
    const std::string a = slurp(chipCfg.obs.traceOut);

    chipCfg.obs.traceOut = tempPath("obs_trace_b.json");
    runStream(cfg, chipCfg);
    const std::string b = slurp(chipCfg.obs.traceOut);

    // Identical runs produce byte-identical traces.
    EXPECT_EQ(a, b);

    // Structural spot-checks of the Chrome trace-event format; the
    // ctest smoke test runs the full validator (tools/check_trace.py).
    EXPECT_NE(a.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(a.find("\"process_name\""), std::string::npos);
    EXPECT_NE(a.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(a.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(a.find("\"cat\": \"mem\""), std::string::npos);
    EXPECT_NE(a.find("\"droppedEvents\""), std::string::npos);
    EXPECT_EQ(a.back(), '\n');
}

TEST(Observability, TracingAndSamplingDoNotChangeTiming)
{
    StreamConfig cfg;
    cfg.kernel = StreamKernel::Add;
    cfg.threads = 8;
    cfg.elementsPerThread = 120;

    const StreamResult plain = runStream(cfg, ChipConfig{});

    ChipConfig instrumented;
    instrumented.obs.traceCats = kTraceAll;
    instrumented.obs.traceOut = tempPath("obs_timing_trace.json");
    instrumented.obs.statsInterval = 64;
    instrumented.obs.statsJson = tempPath("obs_timing_stats.json");
    instrumented.obs.statsCsv = tempPath("obs_timing_series.csv");
    const StreamResult traced = runStream(cfg, instrumented);

    EXPECT_EQ(plain.iterationCycles, traced.iterationCycles);
    EXPECT_EQ(plain.simCycles, traced.simCycles);
    EXPECT_EQ(plain.instructions, traced.instructions);
    for (u32 c = 0; c <= kNumCycleCats; ++c)
        EXPECT_EQ(plain.attr.value(c), traced.attr.value(c))
            << kCycleCatNames[c];
}

TEST(Observability, TracerRingOverflowCountsDrops)
{
    Tracer tracer;
    tracer.configure(kTraceAll, 4);
    ASSERT_TRUE(tracer.enabled());
    for (u32 i = 0; i < 10; ++i)
        tracer.complete(TraceCat::Mem, i, "ev", 100 + i, 1);
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);
    const auto events = tracer.sorted();
    ASSERT_EQ(events.size(), 4u);
    // The ring keeps the newest events, returned in time order.
    for (size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].start, 106 + i);
}

TEST(Observability, TracerDisabledRecordsNothing)
{
    Tracer tracer;
    tracer.configure(0, 4096);
    EXPECT_FALSE(tracer.enabled());
    EXPECT_FALSE(tracer.on(TraceCat::Mem));
    tracer.complete(TraceCat::Mem, 0, "ev", 1, 1);
    tracer.instant(TraceCat::Sched, 0, "ev", 2);
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Observability, ParseTraceCats)
{
    // The mask a valid list parses to (0xEE if parsing failed).
    const auto cats = [](const char *spec) {
        u8 mask = 0xEE;
        EXPECT_EQ(parseTraceCats(spec, &mask), "") << spec;
        return mask;
    };
    EXPECT_EQ(cats(""), 0u);
    EXPECT_EQ(cats("none"), 0u);
    EXPECT_EQ(cats("all"), kTraceAll);
    EXPECT_EQ(cats("mem"), traceBit(TraceCat::Mem));
    EXPECT_EQ(cats("mem,barrier"),
              u8(traceBit(TraceCat::Mem) | traceBit(TraceCat::Barrier)));
    EXPECT_EQ(cats("mem,cache,barrier,kernel,sched,net"), kTraceAll);
    EXPECT_EQ(cats("net"), traceBit(TraceCat::Net));
    u8 mask = 7;
    const std::string why = parseTraceCats("host", &mask);
    EXPECT_NE(why.find("unknown trace category 'host'"), std::string::npos)
        << why;
    EXPECT_EQ(mask, 7u);
}

// The TSan preset runs every Observability test: this one drives the
// per-chip tracers from SimPool worker threads, where a shared/global
// tracer would race.
TEST(Observability, ParallelSweepTracesPerChip)
{
    std::vector<u32> sizes = {64, 96, 128, 160};
    auto run = [&](u32 size) {
        StreamConfig cfg;
        cfg.kernel = StreamKernel::Copy;
        cfg.threads = 4;
        cfg.elementsPerThread = size;
        ChipConfig chipCfg;
        chipCfg.obs.traceCats = kTraceAll;
        chipCfg.obs.tag = strprintf("e%u", size);
        chipCfg.obs.traceOut = tempPath("obs_sweep_%t.json");
        return runStream(cfg, chipCfg);
    };
    const std::vector<StreamResult> serial = parallelSweep(sizes, 1, run);
    const std::vector<StreamResult> parallel =
        parallelSweep(sizes, 4, run);
    for (size_t i = 0; i < sizes.size(); ++i) {
        EXPECT_EQ(serial[i].iterationCycles,
                  parallel[i].iterationCycles);
        EXPECT_EQ(serial[i].instructions, parallel[i].instructions);
        // The %t tag kept the concurrent output files distinct.
        const std::string trace =
            slurp(tempPath(strprintf("obs_sweep_e%u.json", sizes[i])));
        EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// Epoch sampling
// ---------------------------------------------------------------------------

TEST(Observability, EpochSamplerRecordsSeries)
{
    Counter work;
    StatGroup stats;
    stats.addCounter("work", &work);
    stats.addGauge("twice", [&] { return 2 * work.value(); });

    EpochSampler sampler;
    sampler.configure(&stats, 100);
    ASSERT_TRUE(sampler.enabled());
    ASSERT_EQ(sampler.names().size(), 2u);
    EXPECT_EQ(sampler.names()[0], "work");
    EXPECT_EQ(sampler.names()[1], "twice");

    work += 5;
    sampler.maybeSample(150); // covers epochs 100 (and nothing else)
    work += 5;
    sampler.maybeSample(340); // covers epochs 200 and 300
    ASSERT_EQ(sampler.rows(), 3u);
    EXPECT_EQ(sampler.sampleCycles()[0], 100u);
    EXPECT_EQ(sampler.sampleCycles()[1], 200u);
    EXPECT_EQ(sampler.sampleCycles()[2], 300u);
    EXPECT_EQ(sampler.value(0, 0), 5u);
    EXPECT_EQ(sampler.value(1, 0), 10u);
    EXPECT_EQ(sampler.value(0, 1), 10u);

    work += 1;
    sampler.finalize(360); // one final row at the end of the run
    ASSERT_EQ(sampler.rows(), 4u);
    EXPECT_EQ(sampler.sampleCycles()[3], 360u);
    EXPECT_EQ(sampler.value(3, 0), 11u);
}

TEST(Observability, EpochSamplerDisabledByDefault)
{
    StatGroup stats;
    EpochSampler sampler;
    sampler.configure(&stats, 0);
    EXPECT_FALSE(sampler.enabled());
    sampler.maybeSample(1000);
    sampler.finalize(2000);
    EXPECT_EQ(sampler.rows(), 0u);
}

TEST(Observability, StatsCsvRoundTrips)
{
    StreamConfig cfg;
    cfg.kernel = StreamKernel::Scale;
    cfg.threads = 2;
    cfg.elementsPerThread = 64;
    ChipConfig chipCfg;
    chipCfg.obs.statsInterval = 200;
    chipCfg.obs.statsCsv = tempPath("obs_series.csv");
    chipCfg.obs.statsJson = tempPath("obs_stats.json");
    runStream(cfg, chipCfg);

    const std::string csv = slurp(chipCfg.obs.statsCsv);
    EXPECT_EQ(csv.rfind("cycle,", 0), 0u) << "CSV must start at header";
    EXPECT_NE(csv.find("chip.cycles"), std::string::npos);
    EXPECT_NE(csv.find("attr.run"), std::string::npos);

    const std::string json = slurp(chipCfg.obs.statsJson);
    EXPECT_NE(json.find("\"cycles\""), std::string::npos);
    EXPECT_NE(json.find("\"attr.barrierWait\""), std::string::npos);
    EXPECT_NE(json.find("\"series\""), std::string::npos);
    EXPECT_NE(json.find("\"mem.loadLatency\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stats registry semantics (satellite fixes)
// ---------------------------------------------------------------------------

TEST(Observability, HistogramBucketsAreFloorLog2)
{
    Histogram h;
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    h.sample(4);
    h.sample(1ull << 30); // beyond the top bucket: clamps, not wraps
    EXPECT_EQ(h.bucket(0), 2u); // 0 and 1
    EXPECT_EQ(h.bucket(1), 2u); // 2 and 3
    EXPECT_EQ(h.bucket(2), 1u); // 4
    EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 1u);
    EXPECT_EQ(h.samples(), 6u);
    EXPECT_EQ(h.max(), 1ull << 30);
}

TEST(Observability, StatGroupKeepsRegistrationOrder)
{
    Counter c1, c2;
    Histogram h1, h2;
    StatGroup stats;
    stats.addCounter("zeta", &c1);
    stats.addCounter("alpha", &c2);
    stats.addGauge("gauge", [] { return u64(7); });
    stats.addHistogram("omega", &h1);
    stats.addHistogram("beta", &h2);

    const auto counters = stats.counters();
    ASSERT_EQ(counters.size(), 3u);
    EXPECT_EQ(counters[0].first, "zeta");
    EXPECT_EQ(counters[1].first, "alpha");
    EXPECT_EQ(counters[2].first, "gauge");
    EXPECT_EQ(counters[2].second, 7u);

    const auto histograms = stats.histograms();
    ASSERT_EQ(histograms.size(), 2u);
    EXPECT_EQ(histograms[0].first, "omega");
    EXPECT_EQ(histograms[1].first, "beta");

    EXPECT_EQ(stats.counterValue("gauge"), 7u);
    EXPECT_EQ(stats.histogram("nonexistent"), nullptr);

    // dump() is deterministic and follows registration order.
    const std::string dump = stats.dump();
    EXPECT_EQ(dump, stats.dump());
    EXPECT_LT(dump.find("zeta"), dump.find("alpha"));
    EXPECT_LT(dump.find("alpha"), dump.find("gauge"));
    EXPECT_LT(dump.find("omega"), dump.find("beta"));
}

using StatGroupDeathTest = ::testing::Test;

TEST(StatGroupDeathTest, DuplicateCounterPanics)
{
    Counter c1, c2;
    StatGroup stats;
    stats.addCounter("dup", &c1);
    EXPECT_DEATH(stats.addCounter("dup", &c2), "dup");
}

TEST(StatGroupDeathTest, DuplicateGaugeAcrossNamespacesPanics)
{
    Counter c;
    StatGroup stats;
    stats.addCounter("shared", &c);
    EXPECT_DEATH(stats.addGauge("shared", [] { return u64(0); }),
                 "shared");
    StatGroup stats2;
    stats2.addGauge("g", [] { return u64(0); });
    EXPECT_DEATH(stats2.addCounter("g", &c), "g");
}

TEST(StatGroupDeathTest, DuplicateHistogramPanics)
{
    Histogram h1, h2;
    StatGroup stats;
    stats.addHistogram("dup", &h1);
    EXPECT_DEATH(stats.addHistogram("dup", &h2), "dup");
}

TEST(StatGroupDeathTest, UnknownCounterValueIsFatal)
{
    StatGroup stats;
    EXPECT_DEATH((void)stats.counterValue("missing"), "missing");
}
