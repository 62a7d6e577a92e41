/**
 * @file
 * Reproduces Figure 7: hardware vs software (tree) barriers on the
 * SPLASH-2 FFT kernel, for a 256-point and a 64K-point transform.
 *
 * Bars are the relative change (%) in total / run / stall cycles of
 * the hardware-barrier run versus the software-tree-barrier run;
 * negative means the hardware barrier is better. The paper reports
 * ~-10% total for the 256-point FFT on 16 threads and ~-5% for the
 * 64K-point FFT on 64 threads, with run cycles *increasing* (more,
 * cheaper spin instructions) while stall cycles drop sharply.
 *
 * Constraints enforced as in the paper: points/processor >= sqrt(N)
 * (so 256-point tops out at 16 threads) and power-of-two processors
 * (64K tops out at 64 of the 126 usable threads).
 */

#include "bench_util.h"
#include "workloads/splash.h"

using namespace cyclops;
using namespace cyclops::workloads;
using cyclops::bench::Options;

namespace
{

double
pct(u64 hw, u64 sw)
{
    return 100.0 * (double(hw) - double(sw)) / double(sw);
}

double
share(u64 part, u64 whole)
{
    return whole ? 100.0 * double(part) / double(whole) : 0.0;
}

void
panel(const Options &opts, u32 points, const std::vector<u32> &threads)
{
    // The hw and sw runs of every thread count are independent
    // simulations: flatten to one point list for the --jobs pool.
    struct Point
    {
        u32 threads;
        BarrierKind kind;
    };
    std::vector<Point> runs;
    for (u32 t : threads) {
        runs.push_back({t, BarrierKind::Hw});
        runs.push_back({t, BarrierKind::SwTree});
    }
    const std::vector<SplashResult> results = cyclops::bench::sweep(
        opts, runs, [&](const Point &p) {
            const ChipConfig cfg = cyclops::bench::chipConfig(
                opts, strprintf("fft%u.t%u.%s", points, p.threads,
                                p.kind == BarrierKind::Hw ? "hw" : "sw"));
            return runFft(p.threads, points, p.kind, cfg);
        });

    // Run/stall come from the cycle-attribution layer: run is the
    // attributed issue time, stall everything else charged while awake.
    const auto run = [](const SplashResult &r) {
        return r.attr[arch::CycleCat::Run];
    };
    const auto stall = [&](const SplashResult &r) {
        return r.attr.charged() - run(r);
    };

    Table table({"threads", "total cycles %", "run cycles %",
                 "stall cycles %", "hw total", "sw total"});
    for (size_t i = 0; i < threads.size(); ++i) {
        const SplashResult &hw = results[2 * i];
        const SplashResult &sw = results[2 * i + 1];
        std::string flag =
            hw.verified && sw.verified ? "" : "!";
        table.addRow({Table::num(s64(threads[i])) + flag,
                      Table::num(pct(hw.cycles, sw.cycles), 1),
                      Table::num(pct(run(hw), run(sw)), 1),
                      Table::num(pct(stall(hw), stall(sw)), 1),
                      Table::num(s64(hw.cycles)),
                      Table::num(s64(sw.cycles))});
    }
    cyclops::bench::emit(opts, table);

    // Where the stalled cycles go: the share of each run's stall time
    // attributed to barrier waits vs the d-cache/memory path. The
    // hardware barrier converts long memory-spin stalls into short
    // wired-OR waits (and some extra run cycles).
    Table comp({"threads", "hw barrier/stall %", "sw barrier/stall %",
                "hw dcache/stall %", "sw dcache/stall %",
                "hw remote/stall %", "sw remote/stall %"});
    for (size_t i = 0; i < threads.size(); ++i) {
        const SplashResult &hw = results[2 * i];
        const SplashResult &sw = results[2 * i + 1];
        const u64 hwBar = hw.attr[arch::CycleCat::BarrierWait];
        const u64 swBar = sw.attr[arch::CycleCat::BarrierWait];
        const u64 hwMem = hw.attr[arch::CycleCat::DcacheMiss] +
                          hw.attr[arch::CycleCat::BankContention];
        const u64 swMem = sw.attr[arch::CycleCat::DcacheMiss] +
                          sw.attr[arch::CycleCat::BankContention];
        // Remote is always 0.0 on a single chip; the column keeps the
        // table shape identical to the multi-chip composition report.
        const u64 hwRem = hw.attr[arch::CycleCat::RemoteWait];
        const u64 swRem = sw.attr[arch::CycleCat::RemoteWait];
        comp.addRow({Table::num(s64(threads[i])),
                     Table::num(share(hwBar, stall(hw)), 1),
                     Table::num(share(swBar, stall(sw)), 1),
                     Table::num(share(hwMem, stall(hw)), 1),
                     Table::num(share(swMem, stall(sw)), 1),
                     Table::num(share(hwRem, stall(hw)), 1),
                     Table::num(share(swRem, stall(sw)), 1)});
    }
    cyclops::bench::note(opts, "Stall composition (cycle attribution):");
    cyclops::bench::emit(opts, comp);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = cyclops::bench::parseOptions(
        argc, argv, cyclops::bench::kObsRows | cyclops::bench::kFaultRows);

    cyclops::bench::banner(
        opts,
        "Figure 7(a): hardware vs software barriers, 256-point FFT",
        "about -10% total cycles at 16 threads; run cycles up, stall "
        "cycles down (negative = hardware barrier better)");
    std::vector<u32> threadsA = {2, 4, 8, 16};
    if (opts.quick)
        threadsA = {4, 16};
    panel(opts, 256, threadsA);

    cyclops::bench::banner(
        opts,
        "Figure 7(b): hardware vs software barriers, 64K-point FFT",
        "about -5% total cycles at 64 threads");
    std::vector<u32> threadsB = {2, 4, 8, 16, 32, 64};
    if (opts.quick)
        threadsB = {8, 64};
    panel(opts, 65536, threadsB);
    cyclops::bench::writeManifest(opts, "bench_fig7_barriers");
    return 0;
}
