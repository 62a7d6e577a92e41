/**
 * @file
 * Reproduces Figure 3: SPLASH-2 parallel speedups (Barnes, FFT, FMM,
 * LU, Ocean, Radix) on 1..128 threads.
 *
 * For the 128-thread points the kernel's two reserved system threads
 * are released (reservedThreads = 0), matching the figure's x-axis;
 * all other points use the standard configuration.
 *
 * Every (threads, app) point is an independent simulation, so the grid
 * is dispatched through the --jobs host thread pool.
 */

#include "bench_util.h"
#include "workloads/splash.h"

using namespace cyclops;
using namespace cyclops::workloads;
using cyclops::bench::Options;

int
main(int argc, char **argv)
{
    const Options opts = cyclops::bench::parseOptions(
        argc, argv, cyclops::bench::kObsRows | cyclops::bench::kFaultRows);
    cyclops::bench::banner(
        opts, "Figure 3: SPLASH-2 parallel speedups",
        "most kernels reach scalability comparable to the SPLASH-2 "
        "report; speedup relative to 1 thread");

    std::vector<u32> threads = {1, 2, 4, 8, 16, 32, 64, 128};
    if (opts.quick)
        threads = {1, 4, 16, 64};

    const SplashApp apps[] = {SplashApp::Barnes, SplashApp::Fft,
                              SplashApp::Fmm, SplashApp::Lu,
                              SplashApp::Ocean, SplashApp::Radix};
    const size_t numApps = sizeof(apps) / sizeof(apps[0]);

    struct Point
    {
        u32 threads;
        SplashApp app;
    };
    std::vector<Point> points;
    for (u32 t : threads)
        for (SplashApp app : apps)
            points.push_back({t, app});

    const std::vector<SplashResult> results = cyclops::bench::sweep(
        opts, points, [&](const Point &p) {
            SplashConfig cfg;
            cfg.app = p.app;
            cfg.threads = p.threads;
            ChipConfig chipCfg = cyclops::bench::chipConfig(
                opts, strprintf("fig3.t%u.%s", p.threads,
                                splashAppName(p.app)));
            if (p.threads > chipCfg.usableThreads())
                chipCfg.reservedThreads = 0; // release system threads
            // Ocean's 130-edge grid caps the per-thread row split.
            if (p.app == SplashApp::Ocean && p.threads == 128)
                cfg.size = 130;
            return runSplash(cfg, chipCfg);
        });

    std::vector<std::string> headers{"threads"};
    for (SplashApp app : apps)
        headers.push_back(splashAppName(app));
    Table speedups(headers);
    Table cyclesTable(headers);

    for (size_t ti = 0; ti < threads.size(); ++ti) {
        std::vector<std::string> srow{Table::num(s64(threads[ti]))};
        std::vector<std::string> crow{Table::num(s64(threads[ti]))};
        for (size_t ai = 0; ai < numApps; ++ai) {
            const SplashResult &result = results[ti * numApps + ai];
            const Cycle base = results[ai].cycles; // threads.front() row
            srow.push_back(strprintf(
                "%.1f%s", double(base) / double(result.cycles),
                result.verified ? "" : "!"));
            crow.push_back(Table::num(s64(result.cycles)));
        }
        speedups.addRow(srow);
        cyclesTable.addRow(crow);
    }

    cyclops::bench::note(opts, "Parallel speedup (higher is better):");
    cyclops::bench::emit(opts, speedups);
    cyclops::bench::note(opts, "Raw cycles:");
    cyclops::bench::emit(opts, cyclesTable);
    cyclops::bench::note(
        opts,
        "Sizes: Barnes 2048 bodies, FFT 64K points, FMM 2048 "
        "particles, LU 384x384, Ocean 130x130, Radix 256K keys.");
    cyclops::bench::writeManifest(opts, "bench_fig3_splash2");
    return 0;
}
