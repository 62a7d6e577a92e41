/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries.
 *
 * Every bench takes the same options (optionTable: --quick, --csv,
 * --scale, --jobs, the degraded-chip fault map of DESIGN.md section 13
 * and the observability outputs of section 10); the usage text lists
 * them. CYCLOPS_BENCH_JOBS sets the job count that --jobs overrides.
 *
 * Simulation points are independent (one Chip each), so sweeps run
 * through cyclops::parallelSweep; results are collected in input
 * order, making the emitted tables byte-identical for any job count.
 */

#ifndef CYCLOPS_BENCH_BENCH_UTIL_H
#define CYCLOPS_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/config.h"
#include "common/log.h"
#include "common/manifest.h"
#include "common/parallel.h"
#include "common/table.h"
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

/**
 * The bench option table, bound to @p opts. None of the observability
 * outputs change the simulated timing.
 */
inline cli::OptionTable
optionTable(Options &opts)
{
    cli::OptionTable t("", "output paths may contain %t, replaced by a "
                           "per-sweep-point tag");
    t.add(cli::flag("--quick", &opts.quick, "shrink sweeps (CI-sized run)"));
    t.add(cli::flag("--csv", &opts.csv, "CSV instead of aligned tables"));
    t.add(cli::u32Value("--scale", &opts.scale,
                        "problem sizes times N/100 (default 100)"));
    t.add(cli::jobs("--jobs", &opts.jobs,
                    "host threads (0 = all; env CYCLOPS_BENCH_JOBS)"));
    t.addFault(opts.fault);
    t.addObs(opts.obs);
    t.addOutputs(opts.obs, opts.manifestOut);
    return t;
}

/** Parse CYCLOPS_BENCH_JOBS and the command line, or exit 2. */
inline Options
parseOptions(int argc, char **argv)
{
    Options opts;
    opts.startNs = hostNowNs();
    cli::OptionTable table = optionTable(opts);
    if (const char *env = std::getenv("CYCLOPS_BENCH_JOBS"))
        if (const std::string why = cli::parseJobs(env, &opts.jobs);
            !why.empty())
            table.fail(argv[0], "CYCLOPS_BENCH_JOBS: " + why);
    if (const std::string why = table.parse(argc, argv); !why.empty())
        table.fail(argv[0], why);
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
