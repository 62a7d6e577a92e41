/**
 * @file
 * Ablation studies of the design choices DESIGN.md calls out:
 *
 *  1. bank burst-transfer mode on/off (latency discount on open rows);
 *  2. allocate-without-fetch store misses vs fetch-on-write;
 *  3. data-cache associativity 1/2/4/8 ("variable associativity");
 *  4. prefetch instruction buffer on/off;
 *  5. scratchpad (way-partitioned fast memory) vs plain cached access;
 *  6. degraded chips (paper section 5): STREAM on a chip with a dead
 *     bank, a dead quad, or both, emitted to
 *     BENCH_fault_ablations.json.
 *
 * Each uses STREAM or a focused kernel and reports the metric the
 * mechanism targets.
 */

#include "arch/chip.h"
#include "arch/thread_unit.h"
#include "bench_util.h"
#include "isa/builder.h"
#include "workloads/stream.h"

using namespace cyclops;
using namespace cyclops::arch;
using namespace cyclops::workloads;
using cyclops::bench::Options;

namespace
{

StreamResult
stream(const ChipConfig &chip, u32 threads, u32 ept, u32 unroll,
       StreamKernel kernel = StreamKernel::Copy)
{
    StreamConfig cfg;
    cfg.kernel = kernel;
    cfg.threads = threads;
    cfg.elementsPerThread = ept;
    cfg.localCaches = true;
    cfg.unroll = unroll;
    return runStream(cfg, chip);
}

/**
 * Burst ablation: pipelined misses that walk one bank's row
 * sequentially (1 KB global stride = bank-local-consecutive blocks),
 * so successive line fills arrive back-to-back on the open row.
 */
double
walkLatency(bool burst)
{
    ChipConfig cfg;
    cfg.burstEnabled = burst;
    cfg.pibEnabled = false;
    cfg.maxOutstandingMem = 8;
    Chip chip(cfg);
    isa::ProgramBuilder b;
    const u32 buf = b.allocData(256 * 1024, 1024);
    b.li(10, igAddr(igExactly(0), buf));
    b.li(12, 120);
    auto loop = b.newLabel();
    b.bind(loop);
    b.lw(20, 0, 10);        // pair of independent loads, same bank
    b.lw(21, 1024, 10);     // next bank-local block: rides the row
    b.add(22, 20, 21);      // consume both before the next pair
    b.addi(10, 10, 2048);
    b.addi(12, 12, -1);
    b.bne(12, 0, loop);
    b.halt();
    chip.loadProgram(b.finish());
    chip.setUnit(0, std::make_unique<ThreadUnit>(0, chip, 0));
    chip.activate(0);
    chip.run(10'000'000);
    return chip.stats().histogram("mem.loadLatency")->mean();
}

/**
 * Scratchpad ablation: a temporary work area is reused between passes
 * of a large streaming sweep that evicts everything from the cache.
 * In scratch ways the temp survives untouched ("addressable fast
 * memory, for streaming data or temporary work areas"); as plain
 * cached data it is thrashed and refetched every pass.
 */
Cycle
scratchStencil(bool useScratch)
{
    ChipConfig cfg;
    cfg.dcacheScratchWays = useScratch ? 4 : 0;
    cfg.pibEnabled = false;
    cfg.maxOutstandingMem = 8;
    Chip chip(cfg);
    isa::ProgramBuilder b;
    const u32 elems = 512; // 4 KB temp working set
    const u32 buf = b.allocData(elems * 8 + 16, 64);
    const u32 streamBytes = 48 * 1024; // 3x the cache: full eviction
    const u32 stream = b.allocData(streamBytes, 64);
    const Addr base = useScratch ? igAddr(igScratch(0), 0)
                                 : igAddr(igExactly(0), buf);
    const u32 iters = 8;
    b.li(20, s32(iters));
    auto outer = b.newLabel();
    auto loop = b.newLabel();
    auto sweep = b.newLabel();
    b.bind(outer);
    // Pass 1: stencil over the temp area.
    b.li(10, base);
    b.li(12, elems / 2);
    b.bind(loop);
    b.ld(2, 0, 10);
    b.ld(4, 8, 10);
    b.faddd(6, 2, 4);
    b.sd(6, 0, 10);
    b.addi(10, 10, 16);
    b.addi(12, 12, -1);
    b.bne(12, 0, loop);
    // Pass 2: stream a large array through the same cache.
    b.li(10, igAddr(igExactly(0), stream));
    b.li(12, s32(streamBytes / 64));
    b.bind(sweep);
    b.lw(5, 0, 10);
    b.addi(10, 10, 64);
    b.addi(12, 12, -1);
    b.bne(12, 0, sweep);
    b.addi(20, 20, -1);
    b.bne(20, 0, outer);
    b.halt();
    chip.loadProgram(b.finish());
    chip.setUnit(0, std::make_unique<ThreadUnit>(0, chip, 0));
    chip.activate(0);
    chip.run(50'000'000);
    return chip.now();
}

/**
 * PIB ablation: a 16-entry buffer versus a minimal 4-entry one (the
 * instruction supply then re-arbitrates the shared I-cache port every
 * few instructions). Eight threads share each I-cache port.
 */
Cycle
pibLoop(bool bigPib)
{
    ChipConfig cfg;
    cfg.pibEntries = bigPib ? 16 : 4;
    Chip chip(cfg);
    isa::ProgramBuilder b;
    b.li(12, 20000);
    auto loop = b.newLabel();
    b.bind(loop);
    for (int i = 0; i < 6; ++i)
        b.addi(5, 5, 1);
    b.addi(12, 12, -1);
    b.bne(12, 0, loop);
    b.halt();
    chip.loadProgram(b.finish());
    for (ThreadId tid = 0; tid < 8; ++tid) {
        chip.setUnit(tid, std::make_unique<ThreadUnit>(tid, chip, 0));
        chip.activate(tid);
    }
    chip.run(50'000'000);
    return chip.now();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts =
        cyclops::bench::parseOptions(argc, argv, cyclops::bench::kNoRows);
    const u32 largeEpt = opts.quick ? 800 : 1984;

    // ---- 1. Burst transfer mode -------------------------------------------
    cyclops::bench::banner(
        opts, "Ablation 1: bank burst-transfer mode",
        "\"threads accessing two consecutive blocks in the same bank "
        "will see a lower latency in burst transfer mode\"");
    Table burst({"configuration", "avg load latency (cycles)"});
    burst.addRow({"burst enabled", Table::num(walkLatency(true), 2)});
    burst.addRow({"burst disabled", Table::num(walkLatency(false), 2)});
    cyclops::bench::emit(opts, burst);

    // ---- 2. Store-miss policy -----------------------------------------------
    cyclops::bench::banner(
        opts, "Ablation 2: allocate-without-fetch store misses",
        "required to sustain ~peak STREAM bandwidth: fetch-on-write "
        "wastes a line fill per streamed store line");
    Table alloc({"policy", "Copy GB/s (126 thr, large)",
                 "Triad GB/s"});
    for (bool noFetch : {true, false}) {
        ChipConfig chip;
        chip.storeAllocNoFetch = noFetch;
        alloc.addRow(
            {noFetch ? "allocate-no-fetch (default)" : "fetch-on-write",
             Table::num(stream(chip, 126, largeEpt, 4).totalGBs, 2),
             Table::num(stream(chip, 126, largeEpt, 4,
                               StreamKernel::Triad)
                            .totalGBs,
                        2)});
    }
    cyclops::bench::emit(opts, alloc);

    // ---- 3. Cache associativity ------------------------------------------------
    cyclops::bench::banner(
        opts, "Ablation 3: data-cache associativity (\"up to 8-way\")",
        "STREAM local-cache mode with three vectors stresses conflict "
        "misses at low associativity");
    Table assoc({"ways", "Add GB/s (126 thr, in-cache size)"});
    for (u32 ways : {1u, 2u, 4u, 8u}) {
        ChipConfig chip;
        chip.dcacheAssoc = ways;
        assoc.addRow({Table::num(s64(ways)),
                      Table::num(stream(chip, 126, 112, 4,
                                        StreamKernel::Add)
                                     .totalGBs,
                                 2)});
    }
    cyclops::bench::emit(opts, assoc);

    // ---- 4. Prefetch instruction buffer ------------------------------------------
    cyclops::bench::banner(
        opts, "Ablation 4: prefetch instruction buffer (PIB)",
        "each thread holds 16 instructions; a tight loop re-fetches "
        "through the shared I-cache port without it");
    Table pib({"configuration",
               "cycles (8 threads, tight 8-instr loop x 20000)"});
    pib.addRow({"16-entry PIB (default)", Table::num(s64(pibLoop(true)))});
    pib.addRow({"4-entry PIB", Table::num(s64(pibLoop(false)))});
    cyclops::bench::emit(opts, pib);

    // ---- 5. Scratchpad ways ---------------------------------------------------------
    cyclops::bench::banner(
        opts, "Ablation 5: way-partitioned scratchpad (2 KB units)",
        "\"a portion of [the cache] can be used as an addressable fast "
        "memory... potentially higher performance\"");
    Table scratch({"storage", "stencil cycles (lower is better)"});
    scratch.addRow({"4 scratch ways (8 KB fast memory)",
                    Table::num(s64(scratchStencil(true)))});
    scratch.addRow({"plain cached", Table::num(s64(scratchStencil(false)))});
    cyclops::bench::emit(opts, scratch);

    // ---- 6. Degraded chips -----------------------------------------------------------
    cyclops::bench::banner(
        opts, "Ablation 6: degraded chips (paper section 5)",
        "\"the approach to hardware faults is to disable the affected "
        "component and keep the chip in service\"");
    struct DegradedPoint
    {
        const char *name;
        std::vector<u32> banks;
        std::vector<u32> quads;
    };
    // 120 threads fit the healthy chip and a chip missing one quad
    // (126 - 4 = 122 schedulable TUs) alike, so the comparison
    // isolates the lost bandwidth/capacity, not a lost workload.
    const std::vector<DegradedPoint> points = {
        {"healthy", {}, {}},
        {"1 dead bank", {5}, {}},
        {"1 dead quad", {}, {3}},
        {"dead bank + dead quad", {5}, {3}},
    };
    const auto degraded = cyclops::bench::sweep(
        opts, points, [&](const DegradedPoint &p) {
            ChipConfig chip;
            chip.fault.disabledBanks = p.banks;
            chip.fault.disabledQuads = p.quads;
            return stream(chip, 120, largeEpt, 4);
        });
    Table deg({"configuration", "Copy GB/s (120 thr, large)",
               "cycles/iter", "verified"});
    for (size_t i = 0; i < points.size(); ++i)
        deg.addRow({points[i].name,
                    Table::num(degraded[i].totalGBs, 2),
                    Table::num(s64(degraded[i].iterationCycles)),
                    degraded[i].verified ? "yes" : "no"});
    cyclops::bench::emit(opts, deg);

    const std::string path = "BENCH_fault_ablations.json";
    std::FILE *f = openOutput(path, "ablations output");
    std::fprintf(f,
                 "{\n  \"benchmark\": \"fault_ablations\",\n"
                 "  \"quick\": %s,\n  \"threads\": 120,\n"
                 "  \"points\": [\n",
                 opts.quick ? "true" : "false");
    for (size_t i = 0; i < points.size(); ++i) {
        std::fprintf(f, "    {\"name\": \"%s\", \"disabledBanks\": [",
                     points[i].name);
        for (size_t j = 0; j < points[i].banks.size(); ++j)
            std::fprintf(f, "%s%u", j ? ", " : "", points[i].banks[j]);
        std::fprintf(f, "], \"disabledQuads\": [");
        for (size_t j = 0; j < points[i].quads.size(); ++j)
            std::fprintf(f, "%s%u", j ? ", " : "", points[i].quads[j]);
        std::fprintf(
            f,
            "], \"copyGBs\": %.3f, \"iterationCycles\": %llu, "
            "\"verified\": %s}%s\n",
            degraded[i].totalGBs,
            static_cast<unsigned long long>(degraded[i].iterationCycles),
            degraded[i].verified ? "true" : "false",
            i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    closeOutput(f, path);
    cyclops::bench::note(opts, "Wrote BENCH_fault_ablations.json");
    cyclops::bench::writeManifest(opts, "bench_ablations");
    return 0;
}
