/**
 * @file
 * Reproduces Figure 6: best-configuration Cyclops STREAM (unrolled
 * loops, local caches, balanced allocation, block partitioning,
 * 249,984 elements) versus the published SGI Origin 3800-400 results
 * (5,000,000 elements per processor).
 *
 * The Origin series is an approximate digitization of Figure 6(b);
 * the paper likewise plots published numbers, not its own runs. The
 * claim: a single Cyclops chip sustains memory bandwidth similar to a
 * 128-processor top-of-the-line commercial machine (~40 GB/s).
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

/** Approximate digitization of Fig 6(b): SGI Origin 3800-400 (GB/s). */
struct OriginPoint
{
    u32 procs;
    double copy, scale, add, triad;
};

const OriginPoint kOrigin[] = {
    {1, 0.6, 0.6, 0.7, 0.7},       {2, 1.2, 1.2, 1.3, 1.3},
    {4, 2.3, 2.3, 2.6, 2.6},       {8, 4.5, 4.6, 5.1, 5.1},
    {16, 8.9, 9.0, 10.0, 10.1},    {32, 17.1, 17.4, 19.3, 19.5},
    {64, 31.2, 31.8, 35.3, 35.6},  {128, 39.4, 40.5, 44.7, 45.3},
};

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = cyclops::bench::parseOptions(
        argc, argv, cyclops::bench::kObsRows | cyclops::bench::kFaultRows);
    cyclops::bench::banner(
        opts,
        "Figure 6(a): Cyclops best-mode STREAM vs thread count "
        "(249,984 elements total)",
        "sustained ~40 GB/s at full thread count, similar to a "
        "128-processor SGI Origin 3800");

    std::vector<u32> threads = {1, 2, 4, 8, 16, 32, 48, 64, 96, 112,
                                126};
    if (opts.quick)
        threads = {1, 8, 32, 126};
    const u32 totalElements = opts.quick ? 126'000 : 249'984;

    // Each (threads, kernel) point is an independent simulation; run
    // the grid on the --jobs host thread pool.
    struct Point
    {
        u32 threads;
        StreamKernel kernel;
    };
    std::vector<Point> points;
    for (u32 t : threads)
        for (StreamKernel kernel : kKernels)
            points.push_back({t, kernel});

    const std::vector<StreamResult> results = cyclops::bench::sweep(
        opts, points, [&](const Point &p) {
            StreamConfig cfg;
            cfg.kernel = p.kernel;
            cfg.threads = p.threads;
            cfg.elementsPerThread = totalElements / p.threads;
            cfg.localCaches = true;
            cfg.unroll = 4;
            cfg.policy = kernel::AllocPolicy::Balanced;
            return runStream(
                cfg, cyclops::bench::chipConfig(
                         opts, strprintf("fig6.t%u.%s", p.threads,
                                         streamKernelName(p.kernel))));
        });

    Table cyclopsTable({"threads", "Copy GB/s", "Scale GB/s",
                        "Add GB/s", "Triad GB/s"});
    size_t idx = 0;
    for (u32 t : threads) {
        std::vector<std::string> row{Table::num(s64(t))};
        for (size_t k = 0; k < 4; ++k) {
            const StreamResult &result = results[idx++];
            row.push_back(Table::num(result.totalGBs, 2));
            if (!result.verified)
                row.back() += "!";
        }
        cyclopsTable.addRow(row);
    }
    cyclops::bench::emit(opts, cyclopsTable);

    cyclops::bench::banner(
        opts,
        "Figure 6(b): SGI Origin 3800-400, published STREAM results "
        "(5,000,000 elements/processor)",
        "approximate digitization; reference series only");
    Table originTable({"processors", "Copy GB/s", "Scale GB/s",
                       "Add GB/s", "Triad GB/s"});
    for (const OriginPoint &p : kOrigin) {
        originTable.addRow({Table::num(s64(p.procs)),
                            Table::num(p.copy, 1), Table::num(p.scale, 1),
                            Table::num(p.add, 1),
                            Table::num(p.triad, 1)});
    }
    cyclops::bench::emit(opts, originTable);
    cyclops::bench::writeManifest(opts, "bench_fig6_origin_compare");
    return 0;
}
