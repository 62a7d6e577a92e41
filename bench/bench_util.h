/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries.
 *
 * Every bench accepts:
 *   --quick   shrink sweeps (CI-sized run)
 *   --csv     emit CSV instead of aligned tables
 *   --scale N multiply problem sizes by N/100 (default 100)
 *   --jobs N  run independent simulation points on N host threads
 *             (0 = all hardware threads, larger counts clamped to
 *             them; also CYCLOPS_BENCH_JOBS)
 *
 * Degraded-chip passthrough (see DESIGN.md section 13; repeatable):
 *   --disable-tu/quad/fpu/dcache/icache/bank N   fuse off a component
 *   --cache-ways N    live D-cache ways per set (0 = all)
 *   --watchdog N      deadlock-watchdog window in cycles (0 = off)
 *
 * Observability passthrough (see DESIGN.md section 10; all default-off
 * and none of them change the simulated timing):
 *   --trace-out PATH      Chrome-trace JSON per simulated chip
 *   --trace-cats LIST     mem,cache,barrier,kernel,sched or "all"
 *   --trace-capacity N    tracer ring size in events
 *   --stats-json PATH     end-of-run counters/histograms JSON
 *   --stats-csv PATH      epoch-sampled counter time-series CSV
 *   --stats-interval N    epoch sample period in cycles
 *   --prof-out PATH       PC-sampling profile (JSON + .folded +
 *                         .heatmap.csv per simulated chip)
 *   --prof-interval N     PC sample period in cycles (default 512
 *                         when --prof-out is given)
 *   --fabric-stats PATH   fabric stats JSON (multi-chip benches;
 *                         schema cyclops-fabric-v1, validated by
 *                         tools/check_fabric.py)
 *   --fabric-heatmap PATH link/pair congestion heatmap CSV
 *                         (multi-chip benches; DESIGN.md section 17)
 *   --manifest PATH       per-run JSON manifest (config hash,
 *                         git describe, wall time)
 * Paths may contain "%t", replaced by a per-sweep-point tag so
 * concurrent simulation points never share an output file.
 *
 * Simulation points are independent (one Chip each), so sweeps run
 * through cyclops::parallelSweep; results are collected in input
 * order, making the emitted tables byte-identical for any job count.
 */

#ifndef CYCLOPS_BENCH_BENCH_UTIL_H
#define CYCLOPS_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "common/manifest.h"
#include "common/parallel.h"
#include "common/parse.h"
#include "common/table.h"
#include "common/trace.h"
#include "common/types.h"

namespace cyclops::bench
{

struct Options
{
    bool quick = false;
    bool csv = false;
    u32 scale = 100;
    u32 jobs = 1;
    ObsConfig obs;     ///< observability passthrough for simulated chips
    FaultConfig fault; ///< degraded-chip fault map for simulated chips
    std::string manifestOut; ///< per-run manifest path ("" = none)
    u64 startNs = 0;         ///< hostNowNs() at option parsing
};

/** Print the option summary (after @p why, if given) and exit 2. */
[[noreturn]] inline void
usage(const char *argv0, const std::string &why = "")
{
    if (!why.empty())
        std::fprintf(stderr, "%s: %s\n", argv0, why.c_str());
    std::fprintf(stderr,
                 "usage: %s [--quick] [--csv] [--scale N] [--jobs N]\n"
                 "          [--disable-tu N] [--disable-quad N] "
                 "[--disable-fpu N]\n"
                 "          [--disable-dcache N] [--disable-icache N]\n"
                 "          [--disable-bank N] [--cache-ways N] "
                 "[--watchdog N]\n"
                 "          [--trace-out P] [--trace-cats LIST]\n"
                 "          [--trace-capacity N] [--stats-json P]\n"
                 "          [--stats-csv P] [--stats-interval N]\n"
                 "          [--prof-out P] [--prof-interval N]\n"
                 "          [--fabric-stats P] [--fabric-heatmap P]\n"
                 "          [--manifest P]\n",
                 argv0);
    std::exit(2);
}

/**
 * Parse a job count from @p text (named @p what in the usage error):
 * a whole-string nonnegative integer, or exit 2. The count is resolved
 * by SimPool::resolveJobs, so 0 and anything past the hardware thread
 * count both mean "all hardware threads".
 */
inline u32
parseJobs(const char *argv0, const char *what, const char *text)
{
    u64 v = 0;
    if (!parseU64(text, &v))
        usage(argv0, strprintf("%s needs a nonnegative number, got '%s'",
                               what, text));
    return SimPool::resolveJobs(
        u32(std::min<u64>(v, std::numeric_limits<u32>::max())));
}

/** Parse a u32 option value, or exit 2 naming @p what. */
inline u32
parseCount(const char *argv0, const char *what, const char *text)
{
    u32 v = 0;
    if (!parseU32(text, &v))
        usage(argv0, strprintf("%s needs a nonnegative number, got '%s'",
                               what, text));
    return v;
}

inline Options
parseOptions(int argc, char **argv)
{
    Options opts;
    opts.startNs = hostNowNs();
    if (const char *env = std::getenv("CYCLOPS_BENCH_JOBS"))
        opts.jobs = parseJobs(argv[0], "CYCLOPS_BENCH_JOBS", env);
    int i = 1;
    // The value of the numeric option argv[i] (exit 2 if malformed).
    auto count = [&] {
        const char *what = argv[i];
        return parseCount(argv[0], what, argv[++i]);
    };
    for (; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            opts.quick = true;
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            opts.csv = true;
        } else if (std::strcmp(argv[i], "--scale") == 0 &&
                   i + 1 < argc) {
            opts.scale = count();
        } else if (std::strcmp(argv[i], "--jobs") == 0 &&
                   i + 1 < argc) {
            opts.jobs = parseJobs(argv[0], "--jobs", argv[++i]);
        } else if (std::strcmp(argv[i], "--trace-out") == 0 &&
                   i + 1 < argc) {
            opts.obs.traceOut = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-cats") == 0 &&
                   i + 1 < argc) {
            opts.obs.traceCats = parseTraceCats(argv[++i]);
        } else if (std::strcmp(argv[i], "--trace-capacity") == 0 &&
                   i + 1 < argc) {
            opts.obs.traceCapacity = count();
        } else if (std::strcmp(argv[i], "--stats-json") == 0 &&
                   i + 1 < argc) {
            opts.obs.statsJson = argv[++i];
        } else if (std::strcmp(argv[i], "--stats-csv") == 0 &&
                   i + 1 < argc) {
            opts.obs.statsCsv = argv[++i];
        } else if (std::strcmp(argv[i], "--stats-interval") == 0 &&
                   i + 1 < argc) {
            opts.obs.statsInterval = count();
        } else if (std::strcmp(argv[i], "--prof-out") == 0 &&
                   i + 1 < argc) {
            opts.obs.profOut = argv[++i];
        } else if (std::strcmp(argv[i], "--prof-interval") == 0 &&
                   i + 1 < argc) {
            opts.obs.profInterval = count();
        } else if (std::strcmp(argv[i], "--fabric-stats") == 0 &&
                   i + 1 < argc) {
            opts.obs.fabricStats = argv[++i];
        } else if (std::strcmp(argv[i], "--fabric-heatmap") == 0 &&
                   i + 1 < argc) {
            opts.obs.fabricHeatmap = argv[++i];
        } else if (std::strcmp(argv[i], "--manifest") == 0 &&
                   i + 1 < argc) {
            opts.manifestOut = argv[++i];
        } else if (std::strcmp(argv[i], "--disable-tu") == 0 &&
                   i + 1 < argc) {
            opts.fault.disabledTus.push_back(count());
        } else if (std::strcmp(argv[i], "--disable-quad") == 0 &&
                   i + 1 < argc) {
            opts.fault.disabledQuads.push_back(count());
        } else if (std::strcmp(argv[i], "--disable-fpu") == 0 &&
                   i + 1 < argc) {
            opts.fault.disabledFpus.push_back(count());
        } else if (std::strcmp(argv[i], "--disable-dcache") == 0 &&
                   i + 1 < argc) {
            opts.fault.disabledDcaches.push_back(count());
        } else if (std::strcmp(argv[i], "--disable-icache") == 0 &&
                   i + 1 < argc) {
            opts.fault.disabledIcaches.push_back(count());
        } else if (std::strcmp(argv[i], "--disable-bank") == 0 &&
                   i + 1 < argc) {
            opts.fault.disabledBanks.push_back(count());
        } else if (std::strcmp(argv[i], "--cache-ways") == 0 &&
                   i + 1 < argc) {
            opts.fault.cacheWays = count();
        } else if (std::strcmp(argv[i], "--watchdog") == 0 &&
                   i + 1 < argc) {
            if (!parseU64(argv[++i], &opts.fault.watchdogCycles))
                usage(argv[0], strprintf("--watchdog needs a nonnegative "
                                         "number, got '%s'", argv[i]));
        } else {
            usage(argv[0]);
        }
    }
    // Tracing to an output file needs at least one enabled category;
    // default to all of them so --trace-out alone does what you mean.
    if (!opts.obs.traceOut.empty() && opts.obs.traceCats == 0)
        opts.obs.traceCats = kTraceAll;
    // Same convenience for profiling: --prof-out alone enables sampling.
    if (!opts.obs.profOut.empty() && opts.obs.profInterval == 0)
        opts.obs.profInterval = 512;
    if (const char *env = std::getenv("CYCLOPS_BENCH_QUICK"))
        if (env[0] == '1')
            opts.quick = true;
    return opts;
}

/**
 * A ChipConfig carrying the bench's observability options, tagged so
 * "%t" in output paths expands uniquely per sweep point.
 */
inline ChipConfig
chipConfig(const Options &opts, const std::string &tag)
{
    ChipConfig cfg;
    cfg.obs = opts.obs;
    cfg.obs.tag = tag;
    cfg.fault = opts.fault;
    if (const std::string err = cfg.check(); !err.empty()) {
        std::fprintf(stderr, "bad chip configuration: %s\n",
                     err.c_str());
        std::exit(2);
    }
    return cfg;
}

/**
 * Emit the per-run manifest if --manifest was given. The config hash
 * covers the bench's base ChipConfig (fault map);
 * sweeps that vary structural parameters per point are identified by
 * the bench name instead. Totals of zero are fine for static benches.
 */
inline void
writeManifest(const Options &opts, const char *benchName,
              u64 simCycles = 0, u64 instructions = 0)
{
    if (opts.manifestOut.empty())
        return;
    const ChipConfig cfg = chipConfig(opts, "manifest");
    RunManifest m;
    m.tool = benchName;
    m.workload = benchName;
    m.config = &cfg;
    m.simCycles = simCycles;
    m.instructions = instructions;
    m.wallSeconds = double(hostNowNs() - opts.startNs) / 1e9;
    writeRunManifest(cfg.obs.expandPath(opts.manifestOut), m);
}

/**
 * Run @p fn over all sweep points on opts.jobs host threads and
 * return the results in input order (table output stays byte-stable).
 */
template <typename Point, typename Fn>
auto
sweep(const Options &opts, const std::vector<Point> &points, Fn fn)
    -> std::vector<decltype(fn(points[0]))>
{
    return parallelSweep(points, opts.jobs, fn);
}

inline void
banner(const Options &opts, const char *experiment, const char *claim)
{
    if (opts.csv)
        return;
    std::printf("======================================================"
                "=========\n");
    std::printf("%s\n", experiment);
    std::printf("Paper reference: %s\n", claim);
    std::printf("======================================================"
                "=========\n");
}

inline void
emit(const Options &opts, const Table &table)
{
    std::fputs(opts.csv ? table.csv().c_str() : table.ascii().c_str(),
               stdout);
    std::printf("\n");
}

inline void
note(const Options &opts, const char *text)
{
    if (!opts.csv)
        std::printf("%s\n", text);
}

} // namespace cyclops::bench

#endif // CYCLOPS_BENCH_BENCH_UTIL_H
