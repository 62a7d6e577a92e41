/**
 * @file
 * Simulator host-throughput benchmark: how fast does the simulator
 * itself run, in simulated cycles per wall-clock second and simulated
 * MIPS (million guest instructions per second)?
 *
 * Not a paper figure — this tracks the repo's own performance
 * trajectory so optimization PRs can show wins and regressions are
 * caught. Measures representative workloads (STREAM kernels, the
 * SPLASH-2 FFT and a multi-chip halo exchange on the fabric — the
 * lockstep path the single-chip rows never touch) and the aggregate
 * throughput of a parallel sweep at --jobs, and emits machine-readable
 * BENCH_simperf.json.
 *
 * Wall-clock numbers vary run to run and host to host; the simulated
 * cycle counts printed alongside are deterministic and double as a
 * quick cross-check that an optimization did not change results.
 * Overhead experiments (profiler, host telemetry, fabric
 * observability, fault model) therefore report the median of repeated
 * runs plus the coefficient of variation.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "bench_util.h"
#include "common/trace.h"
#include "workloads/multichip.h"
#include "workloads/splash.h"
#include "workloads/stream.h"

using namespace cyclops;
using namespace cyclops::workloads;
using cyclops::bench::Options;

namespace
{

/** Fabric aggregates of a multi-chip row (absent on single-chip). */
struct FabricCounters
{
    bool present = false;
    u64 messages = 0;
    u64 bytes = 0;
    u64 queueCycles = 0;
    u64 flitsInjected = 0;
    u64 flitsDelivered = 0;
    u64 flitsInFlight = 0;
    u64 flitsDropped = 0;
    u64 retransmits = 0;
};

struct Measurement
{
    std::string name;
    u64 simCycles = 0;
    u64 instructions = 0;
    double wallSeconds = 0;
    arch::CycleBreakdown attr; ///< where the simulated cycles went
    FabricCounters fabric;     ///< multi-chip rows only

    double
    cyclesPerSec() const
    {
        return wallSeconds > 0 ? double(simCycles) / wallSeconds : 0;
    }
    double
    mips() const
    {
        return wallSeconds > 0
                   ? double(instructions) / wallSeconds / 1e6
                   : 0;
    }
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

Measurement
measureStream(const char *name, StreamKernel kernel, u32 threads,
              u32 ept, u32 profInterval = 0, bool hostObs = false)
{
    StreamConfig cfg;
    cfg.kernel = kernel;
    cfg.threads = threads;
    cfg.elementsPerThread = ept;
    ChipConfig chipCfg;
    chipCfg.obs.profInterval = profInterval;
    chipCfg.obs.hostObs = hostObs;
    const auto start = std::chrono::steady_clock::now();
    const StreamResult result = runStream(cfg, chipCfg);
    Measurement m;
    m.name = name;
    m.wallSeconds = secondsSince(start);
    m.simCycles = result.simCycles;
    m.instructions = result.instructions;
    m.attr = result.attr;
    if (!result.verified)
        warn("simperf: %s failed verification", name);
    return m;
}

/** A Measurement selected from repeated runs plus the run-to-run noise. */
struct Repeated
{
    Measurement m;     ///< the run with the median cycles/sec
    u32 repeats = 0;
    double covPct = 0; ///< stddev/mean of cycles/sec, percent
};

/**
 * Run @p fn @p repeats times and keep the median-rate run. Single-run
 * wall clocks on a loaded host are noisy enough to report negative
 * overheads for free features; the median washes that out and the
 * coefficient of variation says how trustworthy the number is
 * (tools/check_simperf.py rejects implausibly noisy runs).
 */
Repeated
selectMedian(std::vector<Measurement> runs)
{
    std::vector<size_t> order(runs.size());
    std::iota(order.begin(), order.end(), size_t(0));
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return runs[a].cyclesPerSec() < runs[b].cyclesPerSec();
    });
    double mean = 0;
    for (const Measurement &r : runs)
        mean += r.cyclesPerSec();
    mean /= double(runs.size());
    double var = 0;
    for (const Measurement &r : runs) {
        const double d = r.cyclesPerSec() - mean;
        var += d * d;
    }
    var /= double(runs.size());
    Repeated rep;
    rep.m = runs[order[runs.size() / 2]];
    rep.repeats = u32(runs.size());
    rep.covPct = mean > 0 ? std::sqrt(var) / mean * 100.0 : 0.0;
    return rep;
}

/**
 * Run an A/B overhead experiment with the sides interleaved
 * (off, on, off, on, ...): host throughput drifts monotonically over
 * the benchmark's lifetime (allocator and page-cache warm-up), so
 * running all of one side first hands whichever side runs second a
 * systematic advantage far larger than the feature being measured.
 * Each side is then reduced by selectMedian independently.
 */
template <typename FnOff, typename FnOn>
std::pair<Repeated, Repeated>
repeatMedianPair(u32 repeats, FnOff fnOff, FnOn fnOn)
{
    std::vector<Measurement> offs, ons;
    offs.reserve(repeats);
    ons.reserve(repeats);
    for (u32 i = 0; i < repeats; ++i) {
        offs.push_back(fnOff());
        ons.push_back(fnOn());
    }
    return {selectMedian(std::move(offs)), selectMedian(std::move(ons))};
}

Measurement
measureFft(const char *name, u32 threads, u32 points)
{
    const auto start = std::chrono::steady_clock::now();
    const SplashResult result =
        runFft(threads, points, BarrierKind::Hw, ChipConfig{});
    Measurement m;
    m.name = name;
    m.wallSeconds = secondsSince(start);
    m.simCycles = result.cycles;
    m.instructions = result.instructions;
    m.attr = result.attr;
    if (!result.verified)
        warn("simperf: %s failed verification", name);
    return m;
}

/**
 * Host throughput of a whole multi-chip system: N chips in fabric
 * lockstep running the halo exchange. Tracks the epoch-barrier and
 * delivery-queue overhead the single-chip rows never exercise.
 */
Measurement
measureMultiChip(const char *name, u32 dx, u32 dy, u32 dz, u32 words,
                 u32 iters, bool fabricObs = false,
                 bool benignFaultMap = false)
{
    MultiChipConfig cfg;
    cfg.dimX = dx;
    cfg.dimY = dy;
    cfg.dimZ = dz;
    cfg.words = words;
    cfg.iters = iters;
    if (benignFaultMap) {
        // Arm the fault model without perturbing timing: a flaky link
        // at ppm = 0 never draws a corruption, so every message rides
        // its healthy path — this measures the pure cost of the
        // per-packet fault bookkeeping (route lookups through the
        // fault-aware table, corruption draws, in-order clamps).
        net::LinkFault lf;
        lf.src = 0;
        lf.dst = 1;
        lf.kind = net::LinkFaultKind::Flaky;
        lf.flakyPpm = 0;
        cfg.faults.links = {lf};
    }
    if (fabricObs) {
        // Fabric observability without file output: the per-epoch
        // sampler walks every per-link stat and the net-category
        // tracer records per-link slices and packet flows into the
        // ring buffer, which is where the collection cost lives. A
        // small ring keeps the one-time buffer allocation (5 tracers:
        // 4 chips + fabric) from dwarfing the short benchmark run —
        // the ring wraps, so per-event recording cost is unchanged.
        // The epoch matches what a fig8-length sweep would use: a row
        // costs O(scalars) regardless of interval, so the gated
        // quantity is the per-event/per-row path, not row count.
        cfg.obs.statsInterval = 4096;
        cfg.obs.traceCats = traceBit(TraceCat::Net);
        cfg.obs.traceCapacity = 4096;
    }
    const auto start = std::chrono::steady_clock::now();
    const MultiChipResult result = runHaloExchange(cfg);
    Measurement m;
    m.name = name;
    m.wallSeconds = secondsSince(start);
    m.simCycles = result.cycles;
    m.instructions = result.instructions;
    m.attr = result.attr;
    m.fabric.present = true;
    m.fabric.messages = result.messages;
    m.fabric.bytes = result.bytesMoved;
    m.fabric.queueCycles = result.queueCycles;
    m.fabric.flitsInjected = result.flitsInjected;
    m.fabric.flitsDelivered = result.flitsDelivered;
    m.fabric.flitsInFlight = result.flitsInFlight;
    m.fabric.flitsDropped = result.flitsDropped;
    m.fabric.retransmits = result.retransmits;
    if (!result.verified)
        warn("simperf: %s failed verification", name);
    return m;
}

/** Aggregate throughput of a parallel STREAM sweep at opts.jobs. */
Measurement
measureSweep(const Options &opts, const std::vector<u32> &sizes)
{
    const auto start = std::chrono::steady_clock::now();
    const std::vector<StreamResult> results = cyclops::bench::sweep(
        opts, sizes, [&](u32 size) {
            StreamConfig cfg;
            cfg.kernel = StreamKernel::Triad;
            cfg.threads = 126;
            cfg.elementsPerThread = size;
            return runStream(cfg);
        });
    Measurement m;
    m.name = strprintf("stream_sweep_jobs%u", opts.jobs);
    m.wallSeconds = secondsSince(start);
    for (const StreamResult &r : results) {
        m.simCycles += r.simCycles;
        m.instructions += r.instructions;
        m.attr.add(r.attr);
    }
    return m;
}

/**
 * An on/off overhead experiment: the same workload with a feature
 * enabled vs disabled, each side measured as the median of repeated
 * runs. Used for the profiler and for host telemetry itself.
 */
struct Overhead
{
    u32 profInterval = 0; ///< profiler experiment only
    u32 repeats = 0;
    Measurement off;
    Measurement on;
    double offCovPct = 0;
    double onCovPct = 0;

    double
    overheadPct() const
    {
        return off.cyclesPerSec() > 0
                   ? (1.0 - on.cyclesPerSec() / off.cyclesPerSec()) * 100
                   : 0;
    }
};

/** The "hostObs" JSON section: host-telemetry overhead and peak RSS. */
void
writeHostObsJson(std::FILE *f, const Overhead &hostOh)
{
    std::fprintf(f,
                 "  \"hostObs\": {\n"
                 "    \"enabled\": true,\n"
                 "    \"overheadPct\": %.2f,\n"
                 "    \"overheadRepeats\": %u,\n"
                 "    \"overheadDisabledCovPct\": %.2f,\n"
                 "    \"overheadEnabledCovPct\": %.2f,\n"
                 "    \"peakRssKb\": %llu\n"
                 "  },\n",
                 hostOh.overheadPct(), hostOh.repeats, hostOh.offCovPct,
                 hostOh.onCovPct,
                 static_cast<unsigned long long>(hostPeakRssKb()));
}

void
writeJson(const char *path, const Options &opts,
          const std::vector<Measurement> &measurements,
          const Overhead &overhead, const Overhead &hostOh,
          const Overhead &fabricOh, const Overhead &faultOh)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        warn("simperf: cannot write %s", path);
        return;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"simperf\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", opts.quick ? "true" : "false");
    std::fprintf(f, "  \"jobs\": %u,\n", opts.jobs);
    std::fprintf(f, "  \"hostCores\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f,
                 "  \"profilerOverhead\": {\"workload\": \"%s\", "
                 "\"profInterval\": %u, \"repeats\": %u, "
                 "\"disabledCyclesPerSec\": %.0f, "
                 "\"enabledCyclesPerSec\": %.0f, "
                 "\"disabledCovPct\": %.2f, \"enabledCovPct\": %.2f, "
                 "\"overheadPct\": %.2f},\n",
                 overhead.off.name.c_str(), overhead.profInterval,
                 overhead.repeats, overhead.off.cyclesPerSec(),
                 overhead.on.cyclesPerSec(), overhead.offCovPct,
                 overhead.onCovPct, overhead.overheadPct());
    std::fprintf(f,
                 "  \"fabricObsOverhead\": {\"workload\": \"%s\", "
                 "\"repeats\": %u, "
                 "\"disabledCyclesPerSec\": %.0f, "
                 "\"enabledCyclesPerSec\": %.0f, "
                 "\"disabledCovPct\": %.2f, \"enabledCovPct\": %.2f, "
                 "\"overheadPct\": %.2f, \"simCyclesDrift\": %lld},\n",
                 fabricOh.off.name.c_str(), fabricOh.repeats,
                 fabricOh.off.cyclesPerSec(),
                 fabricOh.on.cyclesPerSec(), fabricOh.offCovPct,
                 fabricOh.onCovPct, fabricOh.overheadPct(),
                 static_cast<long long>(s64(fabricOh.on.simCycles) -
                                        s64(fabricOh.off.simCycles)));
    std::fprintf(f,
                 "  \"fabricFaultOverhead\": {\"workload\": \"%s\", "
                 "\"repeats\": %u, "
                 "\"disabledCyclesPerSec\": %.0f, "
                 "\"enabledCyclesPerSec\": %.0f, "
                 "\"disabledCovPct\": %.2f, \"enabledCovPct\": %.2f, "
                 "\"overheadPct\": %.2f, \"simCyclesDrift\": %lld},\n",
                 faultOh.off.name.c_str(), faultOh.repeats,
                 faultOh.off.cyclesPerSec(),
                 faultOh.on.cyclesPerSec(), faultOh.offCovPct,
                 faultOh.onCovPct, faultOh.overheadPct(),
                 static_cast<long long>(s64(faultOh.on.simCycles) -
                                        s64(faultOh.off.simCycles)));
    writeHostObsJson(f, hostOh);
    std::fprintf(f, "  \"workloads\": [\n");
    for (size_t i = 0; i < measurements.size(); ++i) {
        const Measurement &m = measurements[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"simCycles\": %llu, "
                     "\"instructions\": %llu, \"wallSeconds\": %.6f, "
                     "\"cyclesPerSec\": %.0f, \"mips\": %.3f, "
                     "\"attribution\": {",
                     m.name.c_str(),
                     static_cast<unsigned long long>(m.simCycles),
                     static_cast<unsigned long long>(m.instructions),
                     m.wallSeconds, m.cyclesPerSec(), m.mips());
        for (u32 c = 0; c <= arch::kNumCycleCats; ++c)
            std::fprintf(f, "%s\"%s\": %llu", c ? ", " : "",
                         arch::kCycleCatNames[c],
                         static_cast<unsigned long long>(
                             m.attr.value(c)));
        std::fprintf(f, "}");
        if (m.fabric.present)
            std::fprintf(
                f,
                ", \"fabric\": {\"messages\": %llu, \"bytes\": %llu, "
                "\"queueCycles\": %llu, \"flitsInjected\": %llu, "
                "\"flitsDelivered\": %llu, \"flitsInFlight\": %llu, "
                "\"droppedFlits\": %llu, \"retransmits\": %llu}",
                static_cast<unsigned long long>(m.fabric.messages),
                static_cast<unsigned long long>(m.fabric.bytes),
                static_cast<unsigned long long>(m.fabric.queueCycles),
                static_cast<unsigned long long>(m.fabric.flitsInjected),
                static_cast<unsigned long long>(
                    m.fabric.flitsDelivered),
                static_cast<unsigned long long>(
                    m.fabric.flitsInFlight),
                static_cast<unsigned long long>(m.fabric.flitsDropped),
                static_cast<unsigned long long>(
                    m.fabric.retransmits));
        std::fprintf(f, "}%s\n",
                     i + 1 < measurements.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = cyclops::bench::parseOptions(argc, argv);
    cyclops::bench::banner(
        opts, "Simulator host throughput (bench_simperf)",
        "repo performance trajectory: simulated cycles/sec and "
        "simulated MIPS per workload (not a paper figure)");

    std::vector<Measurement> ms;
    if (opts.quick) {
        ms.push_back(measureStream("stream_copy", StreamKernel::Copy,
                                   126, 500));
        ms.push_back(measureStream("stream_triad", StreamKernel::Triad,
                                   126, 500));
        ms.push_back(measureFft("fft_16k", 32, 16384));
        ms.push_back(measureMultiChip("multichip_2x2x1", 2, 2, 1, 32, 4));
        ms.push_back(measureSweep(opts, {112, 248, 400, 600}));
    } else {
        ms.push_back(measureStream("stream_copy", StreamKernel::Copy,
                                   126, 2000));
        ms.push_back(measureStream("stream_triad", StreamKernel::Triad,
                                   126, 2000));
        ms.push_back(measureFft("fft_64k", 64, 65536));
        ms.push_back(measureMultiChip("multichip_2x2x2", 2, 2, 2, 64, 8));
        ms.push_back(measureSweep(
            opts, {112, 248, 400, 600, 800, 1000, 1200, 1400, 1600,
                   2000}));
    }

    // Profiler overhead: the same workload with PC sampling enabled
    // (no file output) vs disabled. The simulated cycle counts must
    // match exactly — the profiler never changes simulated timing.
    // Each side is the median of kRepeats runs: a single wall-clock
    // pair regularly reported a *negative* overhead on a loaded host.
    constexpr u32 kRepeats = 5;
    Overhead overhead;
    overhead.profInterval = 256;
    overhead.repeats = kRepeats;
    const u32 ohEpt = opts.quick ? 500 : 2000;
    {
        const auto [off, on] = repeatMedianPair(
            kRepeats,
            [&] {
                return measureStream("stream_triad_profoff",
                                     StreamKernel::Triad, 126, ohEpt);
            },
            [&] {
                return measureStream("stream_triad_profon",
                                     StreamKernel::Triad, 126, ohEpt,
                                     overhead.profInterval);
            });
        overhead.off = off.m;
        overhead.on = on.m;
        overhead.offCovPct = off.covPct;
        overhead.onCovPct = on.covPct;
    }
    if (overhead.on.simCycles != overhead.off.simCycles)
        warn("simperf: profiler changed simulated timing (%llu != "
             "%llu cycles)",
             static_cast<unsigned long long>(overhead.on.simCycles),
             static_cast<unsigned long long>(overhead.off.simCycles));
    ms.push_back(overhead.off);
    ms.push_back(overhead.on);

    // Host-telemetry overhead, measured the same way: hostObs on vs
    // off must track within ~1% and must not change simulated cycles
    // at all.
    Overhead hostOh;
    hostOh.repeats = kRepeats;
    {
        const auto [off, on] = repeatMedianPair(
            kRepeats,
            [&] {
                return measureStream("stream_triad_hostobs_off",
                                     StreamKernel::Triad, 126, ohEpt);
            },
            [&] {
                return measureStream("stream_triad_hostobs_on",
                                     StreamKernel::Triad, 126, ohEpt, 0,
                                     true);
            });
        hostOh.off = off.m;
        hostOh.on = on.m;
        hostOh.offCovPct = off.covPct;
        hostOh.onCovPct = on.covPct;
    }
    if (hostOh.on.simCycles != hostOh.off.simCycles)
        warn("simperf: host telemetry changed simulated timing "
             "(%llu != %llu cycles)",
             static_cast<unsigned long long>(hostOh.on.simCycles),
             static_cast<unsigned long long>(hostOh.off.simCycles));
    ms.push_back(hostOh.off);
    ms.push_back(hostOh.on);

    // Fabric-observability overhead: the multi-chip halo exchange with
    // the per-link epoch sampler and net-category tracer enabled (no
    // file output) vs fully off. The simCyclesDrift field in the JSON
    // must be exactly zero — fabric telemetry never moves a simulated
    // cycle (tools/check_simperf.py enforces it).
    Overhead fabricOh;
    fabricOh.repeats = kRepeats;
    {
        // Big enough that each run is ~100ms: at single-digit
        // millisecond run lengths the pair measurement is dominated
        // by host scheduling noise, not by collection cost.
        const u32 fw = opts.quick ? 256 : 512;
        const u32 fi = 32;
        const auto [off, on] = repeatMedianPair(
            kRepeats,
            [&] {
                return measureMultiChip("multichip_fabricobs_off", 2, 2,
                                        1, fw, fi);
            },
            [&] {
                return measureMultiChip("multichip_fabricobs_on", 2, 2,
                                        1, fw, fi, true);
            });
        fabricOh.off = off.m;
        fabricOh.on = on.m;
        fabricOh.offCovPct = off.covPct;
        fabricOh.onCovPct = on.covPct;
    }
    if (fabricOh.on.simCycles != fabricOh.off.simCycles)
        warn("simperf: fabric observability changed simulated timing "
             "(%llu != %llu cycles)",
             static_cast<unsigned long long>(fabricOh.on.simCycles),
             static_cast<unsigned long long>(fabricOh.off.simCycles));
    ms.push_back(fabricOh.off);
    ms.push_back(fabricOh.on);

    // Fault-model overhead: the same halo exchange with the fault
    // model armed by a benign map (one flaky link at ppm = 0) vs the
    // healthy fast path. The benign map routes every message over its
    // healthy path and never draws a corruption, so simCyclesDrift
    // must be exactly zero — arming the model is a host-cost-only
    // change (tools/check_simperf.py enforces it).
    Overhead fabricFaultOh;
    fabricFaultOh.repeats = kRepeats;
    {
        const u32 fw = opts.quick ? 256 : 512;
        const u32 fi = 32;
        const auto [off, on] = repeatMedianPair(
            kRepeats,
            [&] {
                return measureMultiChip("multichip_fault_off", 2, 2, 1,
                                        fw, fi);
            },
            [&] {
                return measureMultiChip("multichip_fault_armed", 2, 2,
                                        1, fw, fi, false, true);
            });
        fabricFaultOh.off = off.m;
        fabricFaultOh.on = on.m;
        fabricFaultOh.offCovPct = off.covPct;
        fabricFaultOh.onCovPct = on.covPct;
    }
    if (fabricFaultOh.on.simCycles != fabricFaultOh.off.simCycles)
        warn("simperf: benign fault map changed simulated timing "
             "(%llu != %llu cycles)",
             static_cast<unsigned long long>(
                 fabricFaultOh.on.simCycles),
             static_cast<unsigned long long>(
                 fabricFaultOh.off.simCycles));
    ms.push_back(fabricFaultOh.off);
    ms.push_back(fabricFaultOh.on);

    Table table({"workload", "sim cycles", "instructions", "wall s",
                 "Mcycles/s", "sim MIPS"});
    for (const Measurement &m : ms) {
        table.addRow({m.name, Table::num(s64(m.simCycles)),
                      Table::num(s64(m.instructions)),
                      Table::num(m.wallSeconds, 3),
                      Table::num(m.cyclesPerSec() / 1e6, 2),
                      Table::num(m.mips(), 2)});
    }
    cyclops::bench::emit(opts, table);

    writeJson("BENCH_simperf.json", opts, ms, overhead, hostOh,
              fabricOh, fabricFaultOh);
    cyclops::bench::note(opts, "Wrote BENCH_simperf.json");

    u64 totalCycles = 0, totalInstructions = 0;
    for (const Measurement &m : ms) {
        totalCycles += m.simCycles;
        totalInstructions += m.instructions;
    }
    cyclops::bench::writeManifest(opts, "bench_simperf", totalCycles,
                                  totalInstructions);
    return 0;
}
