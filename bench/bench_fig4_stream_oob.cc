/**
 * @file
 * Reproduces Figure 4: STREAM out-of-the-box.
 *
 * (a) single-threaded bandwidth vs vector size: the in-cache to
 *     out-of-cache transition, earlier for Add/Triad (three vectors)
 *     than Copy/Scale (two vectors);
 * (b) 126 independent copies, per-thread bandwidth vs elements per
 *     thread: the transition lands at 200-300 elements/thread, and the
 *     aggregate is 112-120x the single-threaded case for large vectors.
 *
 * Each (size, kernel) point is an independent simulation dispatched
 * through the --jobs host thread pool.
 */

#include "bench_util.h"
#include "workloads/stream.h"

using namespace cyclops;
using namespace cyclops::workloads;
using cyclops::bench::Options;

namespace
{

const StreamKernel kKernels[] = {StreamKernel::Copy, StreamKernel::Scale,
                                 StreamKernel::Add, StreamKernel::Triad};
constexpr size_t kNumKernels = 4;

/** Sweep a size x kernel grid; one row per size, in input order. */
std::vector<StreamResult>
sweepGrid(const Options &opts, const std::vector<u32> &sizes,
          u32 threads, bool independent)
{
    struct Point
    {
        u32 size;
        StreamKernel kernel;
    };
    std::vector<Point> points;
    for (u32 size : sizes)
        for (StreamKernel kernel : kKernels)
            points.push_back({size, kernel});
    return cyclops::bench::sweep(opts, points, [&](const Point &p) {
        StreamConfig cfg;
        cfg.kernel = p.kernel;
        cfg.threads = threads;
        cfg.elementsPerThread = p.size;
        cfg.independent = independent;
        return runStream(
            cfg, cyclops::bench::chipConfig(
                     opts, strprintf("fig4.t%u.e%u.%s", threads, p.size,
                                     streamKernelName(p.kernel))));
    });
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = cyclops::bench::parseOptions(
        argc, argv, cyclops::bench::kObsRows | cyclops::bench::kFaultRows);

    // ---- Figure 4(a): single-threaded sweep -----------------------------
    cyclops::bench::banner(
        opts, "Figure 4(a): single-threaded STREAM out-of-the-box",
        "in-cache to out-of-cache transition as vector size grows; "
        "Add/Triad transition earlier (3 vectors vs 2)");

    std::vector<u32> sizesA = {256,    512,    1024,   2048,  4096,
                               8192,   16384,  32768,  65536, 131072,
                               200000, 252000};
    if (opts.quick)
        sizesA = {512, 4096, 32768, 131072};

    const std::vector<StreamResult> resultsA =
        sweepGrid(opts, sizesA, 1, false);

    Table tableA({"elements", "Copy MB/s", "Scale MB/s", "Add MB/s",
                  "Triad MB/s"});
    for (size_t si = 0; si < sizesA.size(); ++si) {
        std::vector<std::string> row{Table::num(s64(sizesA[si]))};
        for (size_t k = 0; k < kNumKernels; ++k) {
            const StreamResult &result = resultsA[si * kNumKernels + k];
            row.push_back(Table::num(result.perThreadMBs, 1));
            if (!result.verified)
                row.back() += "!";
        }
        tableA.addRow(row);
    }
    cyclops::bench::emit(opts, tableA);

    // ---- Figure 4(b): 126 independent copies -----------------------------
    cyclops::bench::banner(
        opts,
        "Figure 4(b): multi-threaded STREAM out-of-the-box "
        "(126 independent copies)",
        "per-thread bandwidth; in-/out-of-cache transition at 200-300 "
        "elements per thread");

    std::vector<u32> sizesB = {112, 248, 400,  600,  800,
                               1000, 1200, 1400, 1600, 2000};
    if (opts.quick)
        sizesB = {112, 400, 1200, 2000};

    const std::vector<StreamResult> resultsB =
        sweepGrid(opts, sizesB, 126, true);

    Table tableB({"elements/thread", "Copy MB/s", "Scale MB/s",
                  "Add MB/s", "Triad MB/s"});
    double largeAggregate[4] = {0, 0, 0, 0};
    for (size_t si = 0; si < sizesB.size(); ++si) {
        std::vector<std::string> row{Table::num(s64(sizesB[si]))};
        for (size_t k = 0; k < kNumKernels; ++k) {
            const StreamResult &result = resultsB[si * kNumKernels + k];
            row.push_back(Table::num(result.perThreadMBs, 1));
            if (!result.verified)
                row.back() += "!";
            if (si + 1 == sizesB.size())
                largeAggregate[k] = result.totalGBs;
        }
        tableB.addRow(row);
    }
    cyclops::bench::emit(opts, tableB);

    // The 112-120x aggregate claim for large vectors.
    std::vector<StreamKernel> singles(kKernels, kKernels + kNumKernels);
    const std::vector<StreamResult> singleResults =
        cyclops::bench::sweep(opts, singles, [&](StreamKernel kernel) {
            StreamConfig cfg;
            cfg.kernel = kernel;
            cfg.threads = 1;
            cfg.elementsPerThread = sizesB.back() * 126;
            return runStream(
                cfg, cyclops::bench::chipConfig(
                         opts, strprintf("fig4single.%s",
                                         streamKernelName(kernel))));
        });

    Table ratio({"Kernel", "126-thread aggregate GB/s",
                 "single-thread GB/s", "ratio (paper: 112-120x)"});
    for (size_t k = 0; k < kNumKernels; ++k) {
        const StreamResult &single = singleResults[k];
        ratio.addRow({streamKernelName(kKernels[k]),
                      Table::num(largeAggregate[k], 2),
                      Table::num(single.totalGBs, 3),
                      Table::num(largeAggregate[k] / single.totalGBs,
                                 1)});
    }
    cyclops::bench::emit(opts, ratio);
    cyclops::bench::writeManifest(opts, "bench_fig4_stream_oob");
    return 0;
}
