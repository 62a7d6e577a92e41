#include "workloads/stream.h"

#include <cctype>
#include <cmath>
#include <cstring>
#include <vector>

#include "arch/chip.h"
#include "arch/interest_group.h"
#include "common/bitops.h"
#include "common/log.h"
#include "isa/builder.h"

namespace cyclops::workloads
{

using arch::Chip;
using arch::igAddr;
using arch::kIgDefault;
using arch::kIgOwn;
using isa::ProgramBuilder;

const char *
streamKernelName(StreamKernel kernel)
{
    switch (kernel) {
      case StreamKernel::Copy: return "Copy";
      case StreamKernel::Scale: return "Scale";
      case StreamKernel::Add: return "Add";
      case StreamKernel::Triad: return "Triad";
    }
    return "?";
}

namespace
{

constexpr double kScalar = 3.0;

/** Bytes per thread in the rdcounter snapshot buffer (2 × 8 × u32). */
constexpr u32 kCntBytesPerThread = 64;

/** Symbol naming the inner kernel loop, e.g. "triad_kernel". */
std::string
kernelSymbol(StreamKernel kernel)
{
    std::string name = streamKernelName(kernel);
    for (char &c : name)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    return name + "_kernel";
}

/** Per-thread slice of the iteration space. */
struct Slice
{
    PhysAddr aStart, bStart, cStart;
    u32 strideBytes;
    u32 elements;
};

/** Resolved data layout for one experiment. */
struct Layout
{
    PhysAddr vecBase = 0x0002'0000; ///< above text+data
    u32 ept = 0;       ///< elements per thread (rounded)
    u32 total = 0;     ///< total elements per vector
    u8 ig = kIgDefault;
    std::vector<Slice> slices;
};

Layout
planLayout(const StreamConfig &cfg, const ChipConfig &chipCfg)
{
    Layout lay;
    lay.ept = std::max(8u, u32(roundUp(cfg.elementsPerThread, 8)));
    lay.total = lay.ept * cfg.threads;
    lay.ig = cfg.localCaches ? kIgOwn : kIgDefault;

    if (cfg.localCaches && cfg.partition == StreamPartition::Cyclic)
        fatal("STREAM local-cache mode requires blocked partitioning "
              "(line-aligned per-thread blocks)");

    const u32 eptBytes = lay.ept * 8;
    const u64 need =
        cfg.independent
            ? u64(cfg.threads) * 3 * roundUp(eptBytes, 64)
            : u64(3) * roundUp(u64(lay.total) * 8, 64);
    const u64 budget = u64(chipCfg.numBanks) * chipCfg.bankBytes -
                       lay.vecBase -
                       u64(chipCfg.numThreads) * 4096 /* stacks */;
    if (need > budget)
        fatal("STREAM size does not fit: need %llu bytes, %llu free "
              "(the chip has 8 MB of embedded memory)",
              static_cast<unsigned long long>(need),
              static_cast<unsigned long long>(budget));

    lay.slices.resize(cfg.threads);
    if (cfg.independent) {
        const u32 triple = u32(roundUp(eptBytes, 64)) * 3;
        for (u32 t = 0; t < cfg.threads; ++t) {
            Slice &s = lay.slices[t];
            const PhysAddr mine = lay.vecBase + t * triple;
            s.aStart = mine;
            s.bStart = mine + u32(roundUp(eptBytes, 64));
            s.cStart = mine + 2 * u32(roundUp(eptBytes, 64));
            s.strideBytes = 8;
            s.elements = lay.ept;
        }
        return lay;
    }

    const u32 vecBytes = u32(roundUp(u64(lay.total) * 8, 64));
    const PhysAddr aBase = lay.vecBase;
    const PhysAddr bBase = aBase + vecBytes;
    const PhysAddr cBase = bBase + vecBytes;

    if (cfg.partition == StreamPartition::Blocked) {
        for (u32 t = 0; t < cfg.threads; ++t) {
            Slice &s = lay.slices[t];
            const u32 off = t * lay.ept * 8;
            s.aStart = aBase + off;
            s.bStart = bBase + off;
            s.cStart = cBase + off;
            s.strideBytes = 8;
            s.elements = lay.ept;
        }
    } else {
        // Cyclic: groups of cfg.cyclicGroup threads interleave within a
        // region, so a group shares each eight-element cache line; each
        // group starts from a different region of the iteration space.
        const u32 group = std::max(1u, cfg.cyclicGroup);
        u32 regionStartElems = 0;
        for (u32 g = 0; g * group < cfg.threads; ++g) {
            const u32 members =
                std::min(group, cfg.threads - g * group);
            for (u32 p = 0; p < members; ++p) {
                const u32 t = g * group + p;
                Slice &s = lay.slices[t];
                const u32 startElem = regionStartElems + p;
                s.aStart = aBase + startElem * 8;
                s.bStart = bBase + startElem * 8;
                s.cStart = cBase + startElem * 8;
                s.strideBytes = members * 8;
                s.elements = lay.ept;
            }
            regionStartElems += members * lay.ept;
        }
    }
    return lay;
}

/** Emit the kernel body for @p unroll elements at stride offsets. */
void
emitBody(ProgramBuilder &b, StreamKernel kernel, u32 unroll, u32 stride)
{
    // r10 = a ptr, r11 = b ptr, r12 = c ptr, r8 pair = scalar s.
    // Loads are grouped first, FP ops next, stores last, so the
    // unrolled code issues independent instructions while the memory
    // operations complete (the point of Fig 5d).
    const u8 t0 = 32, u0 = 40, v0 = 48; // even pair register banks
    switch (kernel) {
      case StreamKernel::Copy: // c = a
        for (u32 k = 0; k < unroll; ++k)
            b.ld(u8(t0 + 2 * k), s32(k * stride), 10);
        for (u32 k = 0; k < unroll; ++k)
            b.sd(u8(t0 + 2 * k), s32(k * stride), 12);
        break;
      case StreamKernel::Scale: // b = s * c
        for (u32 k = 0; k < unroll; ++k)
            b.ld(u8(t0 + 2 * k), s32(k * stride), 12);
        for (u32 k = 0; k < unroll; ++k)
            b.fmuld(u8(u0 + 2 * k), u8(t0 + 2 * k), 8);
        for (u32 k = 0; k < unroll; ++k)
            b.sd(u8(u0 + 2 * k), s32(k * stride), 11);
        break;
      case StreamKernel::Add: // c = a + b
        for (u32 k = 0; k < unroll; ++k)
            b.ld(u8(t0 + 2 * k), s32(k * stride), 10);
        for (u32 k = 0; k < unroll; ++k)
            b.ld(u8(u0 + 2 * k), s32(k * stride), 11);
        for (u32 k = 0; k < unroll; ++k)
            b.faddd(u8(v0 + 2 * k), u8(t0 + 2 * k), u8(u0 + 2 * k));
        for (u32 k = 0; k < unroll; ++k)
            b.sd(u8(v0 + 2 * k), s32(k * stride), 12);
        break;
      case StreamKernel::Triad: // a = b + s * c
        for (u32 k = 0; k < unroll; ++k)
            b.ld(u8(v0 + 2 * k), s32(k * stride), 11); // b[i]
        for (u32 k = 0; k < unroll; ++k)
            b.ld(u8(t0 + 2 * k), s32(k * stride), 12); // c[i]
        for (u32 k = 0; k < unroll; ++k)
            b.fmadd(u8(v0 + 2 * k), u8(t0 + 2 * k), 8);
        for (u32 k = 0; k < unroll; ++k)
            b.sd(u8(v0 + 2 * k), s32(k * stride), 10);
        break;
    }
}

isa::Program
buildProgram(const StreamConfig &cfg, const Layout &lay, u32 iterations)
{
    if (cfg.unroll != 1 && cfg.unroll != 4)
        fatal("STREAM supports unroll factors 1 and 4 (got %u)",
              cfg.unroll);
    if (lay.ept % cfg.unroll != 0)
        fatal("elements per thread (%u) must divide by the unroll "
              "factor", lay.ept);

    // Unrolled bodies bake the element stride into displacement fields,
    // so every thread must share one stride; unroll-1 bodies take the
    // stride from the per-thread table (cyclic remainder groups).
    if (cfg.unroll > 1) {
        for (const Slice &s : lay.slices)
            if (s.strideBytes != lay.slices[0].strideBytes)
                fatal("cyclic STREAM with unrolling needs the thread "
                      "count to be a multiple of the group size");
    }

    ProgramBuilder b;

    // Scalar s and the per-thread parameter table live in the small
    // data section (read-only, chip-wide shared).
    const u32 sAddr = b.allocData(8, 8);
    b.pokeDouble(sAddr, kScalar);
    const u32 table = b.allocData(u32(lay.slices.size()) * 32, 64);
    for (u32 t = 0; t < lay.slices.size(); ++t) {
        const Slice &s = lay.slices[t];
        b.pokeWord(table + t * 32 + 0, igAddr(lay.ig, s.aStart));
        b.pokeWord(table + t * 32 + 4, igAddr(lay.ig, s.bStart));
        b.pokeWord(table + t * 32 + 8, igAddr(lay.ig, s.cStart));
        b.pokeWord(table + t * 32 + 12, s.elements / cfg.unroll);
        b.pokeWord(table + t * 32 + 16, cfg.unroll * s.strideBytes);
    }

    // Per-thread counter snapshot buffer: 8 u32s at entry to the
    // kernel loop, 8 more at exit (see StreamConfig::counterTable).
    u32 cntBuf = 0;
    if (cfg.counterTable) {
        cntBuf = b.allocData(cfg.threads * kCntBytesPerThread, 64);
        b.defineSymbol("cnt_buf", cntBuf);
    }

    // r4 = software thread index (set by the kernel at spawn).
    b.defineSymbol("stream_setup", b.here());
    b.slli(20, 4, 5); // ×32
    b.li(21, igAddr(kIgDefault, table));
    b.add(21, 21, 20);
    b.lw(24, 0, 21);  // a start
    b.lw(25, 4, 21);  // b start
    b.lw(26, 8, 21);  // c start
    b.lw(28, 12, 21); // inner iterations
    b.lw(23, 16, 21); // pointer bump per inner iteration
    b.li(22, igAddr(kIgDefault, sAddr));
    b.ld(8, 0, 22);   // scalar s
    b.li(30, s32(iterations));

    if (cfg.counterTable) {
        // r2 = &cnt_buf[tid]; dump the counter file before the loop.
        b.slli(2, 4, 6); // ×64
        b.li(3, igAddr(kIgDefault, cntBuf));
        b.add(2, 2, 3);
        for (u32 k = 0; k < isa::kNumCounterSprs; ++k) {
            b.rdcounter(3, u8(k));
            b.sw(3, s32(k * 4), 2);
        }
    }

    auto outer = b.newLabel();
    auto inner = b.newLabel();
    b.bind(outer);
    b.defineSymbol("stream_outer", b.here());
    b.mv(10, 24);
    b.mv(11, 25);
    b.mv(12, 26);
    b.mv(29, 28);
    b.bind(inner);
    b.defineSymbol(kernelSymbol(cfg.kernel), b.here());
    emitBody(b, cfg.kernel, cfg.unroll, lay.slices[0].strideBytes);
    b.add(10, 10, 23);
    b.add(11, 11, 23);
    b.add(12, 12, 23);
    b.addi(29, 29, -1);
    b.bne(29, 0, inner);
    b.addi(30, 30, -1);
    b.bne(30, 0, outer);
    b.defineSymbol("stream_epilogue", b.here());
    if (cfg.counterTable) {
        for (u32 k = 0; k < isa::kNumCounterSprs; ++k) {
            b.rdcounter(3, u8(k));
            b.sw(3, s32(32 + k * 4), 2);
        }
    }
    b.halt();

    return b.finish();
}

/** Host-side initial value patterns (arbitrary but verifiable). */
double
initA(u32 i)
{
    return 1.0 + double(i % 11);
}
double
initB(u32 i)
{
    return 2.0 + double(i % 7);
}
double
initC(u32 i)
{
    return 0.5 + double(i % 5);
}

void
initVectors(Chip &chip, const StreamConfig &cfg, const Layout &lay)
{
    // Write each thread's slice with the global element index pattern,
    // so verification is independent of the layout.
    std::vector<u8> buf;
    for (u32 t = 0; t < cfg.threads; ++t) {
        const Slice &s = lay.slices[t];
        const u32 strideElems = s.strideBytes / 8;
        // Dense slices write in one shot; strided ones element-wise.
        for (u32 e = 0; e < s.elements; ++e) {
            const u32 off = e * s.strideBytes;
            const double a = initA(t * s.elements + e);
            const double bv = initB(t * s.elements + e);
            const double c = initC(t * s.elements + e);
            chip.writePhys(s.aStart + off, &a, 8);
            chip.writePhys(s.bStart + off, &bv, 8);
            chip.writePhys(s.cStart + off, &c, 8);
        }
        (void)strideElems;
    }
}

bool
verify(Chip &chip, const StreamConfig &cfg, const Layout &lay)
{
    for (u32 t = 0; t < cfg.threads; ++t) {
        const Slice &s = lay.slices[t];
        for (u32 e = 0; e < s.elements; e += 97) {
            const u32 off = e * s.strideBytes;
            const u32 gi = t * s.elements + e;
            double got = 0, expect = 0;
            switch (cfg.kernel) {
              case StreamKernel::Copy:
                chip.readPhys(s.cStart + off, &got, 8);
                expect = initA(gi);
                break;
              case StreamKernel::Scale:
                chip.readPhys(s.bStart + off, &got, 8);
                expect = kScalar * initC(gi);
                break;
              case StreamKernel::Add:
                chip.readPhys(s.cStart + off, &got, 8);
                expect = initA(gi) + initB(gi);
                break;
              case StreamKernel::Triad:
                chip.readPhys(s.aStart + off, &got, 8);
                expect = initB(gi) + kScalar * initC(gi);
                break;
            }
            if (std::fabs(got - expect) > 1e-12) {
                warn("STREAM %s verify failed at thread %u elem %u: "
                     "got %f want %f",
                     streamKernelName(cfg.kernel), t, e, got, expect);
                return false;
            }
        }
    }
    return true;
}

/**
 * Fold the guest's rdcounter snapshots into the per-region counter
 * table: "setup" is the entry snapshot (thread start to loop entry),
 * "kernel" the exit-minus-entry delta, each summed over all threads.
 */
void
readCounterTable(const Chip &chip, const StreamConfig &cfg,
                 StreamResult *out)
{
    const u32 cntBuf = chip.program().symbol("cnt_buf");
    for (u32 t = 0; t < cfg.threads; ++t) {
        u32 snap[2][isa::kNumCounterSprs];
        chip.readPhys(cntBuf + t * kCntBytesPerThread, snap,
                      sizeof(snap));
        for (u32 k = 0; k < isa::kNumCounterSprs; ++k) {
            out->setupCounters[k] += snap[0][k];
            out->kernelCounters[k] += u32(snap[1][k] - snap[0][k]);
        }
    }
    std::string &tbl = out->counterTable;
    tbl = strprintf("STREAM %s counter regions (%u threads, summed)\n",
                    streamKernelName(cfg.kernel), cfg.threads);
    tbl += strprintf("%-10s %14s %14s\n", "counter", "setup", "kernel");
    for (u32 k = 0; k < isa::kNumCounterSprs; ++k)
        tbl += strprintf(
            "%-10s %14llu %14llu\n",
            isa::counterName(isa::kSprCntBase + k),
            static_cast<unsigned long long>(out->setupCounters[k]),
            static_cast<unsigned long long>(out->kernelCounters[k]));
}

/** Run with @p iterations kernel repetitions; returns total cycles. */
Cycle
timedRun(const StreamConfig &cfg, const ChipConfig &chipCfg,
         const Layout &lay, u32 iterations, bool *verified,
         u64 *instructions = nullptr,
         StreamResult *longRunOut = nullptr)
{
    Chip chip(chipCfg);
    kernel::Kernel kern(chip, cfg.policy);
    kern.load(buildProgram(cfg, lay, iterations));
    initVectors(chip, cfg, lay);
    kern.spawn(cfg.threads, chip.program().entry);
    if (kern.run(2'000'000'000ull) != arch::RunExit::AllHalted)
        fatal("STREAM did not finish within the cycle limit");
    if (verified)
        *verified = verify(chip, cfg, lay);
    if (instructions)
        *instructions += chip.totalInstructions();
    if (longRunOut) {
        // Only the long run exports: it is the representative steady-
        // state simulation, and a second export would clobber its files.
        longRunOut->attr = chip.chipAttribution();
        if (cfg.counterTable)
            readCounterTable(chip, cfg, longRunOut);
        chip.writeObservability();
    }
    return chip.now();
}

} // namespace

StreamResult
runStream(const StreamConfig &cfg, const ChipConfig &chipCfg)
{
    if (cfg.threads == 0)
        fatal("STREAM needs at least one thread");

    const Layout lay = planLayout(cfg, chipCfg);

    // Difference a 2-iteration and a 4-iteration run and divide by
    // two: the measured iterations execute against warm caches (what
    // STREAM's best-of-10 reports), and averaging two of them washes
    // out boundary overlap with the cold first iteration's tail.
    bool verified = false;
    u64 instructions = 0;
    StreamResult result;
    const Cycle shortRun =
        timedRun(cfg, chipCfg, lay, 2, nullptr, &instructions);
    const Cycle longRun = timedRun(cfg, chipCfg, lay, 4, &verified,
                                   &instructions, &result);
    const Cycle iter =
        longRun > shortRun ? (longRun - shortRun) / 2 : shortRun;

    result.iterationCycles = iter;
    result.simCycles = shortRun + longRun;
    result.instructions = instructions;
    result.bytesPerIteration = u64(lay.total) *
                               streamBytesPerElement(cfg.kernel);
    const double seconds = double(iter) / double(chipCfg.clockHz);
    result.totalGBs = double(result.bytesPerIteration) / seconds / 1e9;
    result.perThreadMBs = double(result.bytesPerIteration) /
                          cfg.threads / seconds / 1e6;
    result.verified = verified;
    return result;
}

} // namespace cyclops::workloads
