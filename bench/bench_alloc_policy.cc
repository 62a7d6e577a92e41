/**
 * @file
 * Reproduces the thread-allocation-policy experiment of Section 3.2.2:
 * sequential (threads fill quads in order) versus balanced (threads
 * scattered cyclically over the quads) allocation, in STREAM
 * local-cache mode.
 *
 * Claims: the balanced policy helps only when not all threads are in
 * use (less pressure per cache; up to +20% for Copy) and makes no
 * difference at the full thread count.
 */

#include "bench_util.h"
#include "workloads/stream.h"

using namespace cyclops;
using namespace cyclops::workloads;
using cyclops::bench::Options;

int
main(int argc, char **argv)
{
    const Options opts =
        cyclops::bench::parseOptions(argc, argv, cyclops::bench::kNoRows);
    cyclops::bench::banner(
        opts,
        "Section 3.2.2: sequential vs balanced thread allocation "
        "(STREAM Copy, local caches, blocked)",
        "balanced wins when threads < all (up to +20% on Copy); no "
        "difference at the full count");

    std::vector<u32> threads = {4, 8, 16, 32, 64, 96, 126};
    if (opts.quick)
        threads = {8, 32, 126};
    const u32 ept = 1000;

    // Sequential and balanced runs at every thread count are
    // independent simulations: one flattened sweep for the --jobs pool.
    struct Point
    {
        u32 threads;
        kernel::AllocPolicy policy;
    };
    std::vector<Point> points;
    for (u32 t : threads) {
        points.push_back({t, kernel::AllocPolicy::Sequential});
        points.push_back({t, kernel::AllocPolicy::Balanced});
    }
    const std::vector<StreamResult> results = cyclops::bench::sweep(
        opts, points, [&](const Point &p) {
            StreamConfig cfg;
            cfg.kernel = StreamKernel::Copy;
            cfg.threads = p.threads;
            cfg.elementsPerThread = ept;
            cfg.localCaches = true;
            cfg.policy = p.policy;
            return runStream(cfg);
        });

    Table table({"threads", "sequential GB/s", "balanced GB/s",
                 "balanced gain %"});
    for (size_t i = 0; i < threads.size(); ++i) {
        const StreamResult &seq = results[2 * i];
        const StreamResult &bal = results[2 * i + 1];
        table.addRow(
            {Table::num(s64(threads[i])), Table::num(seq.totalGBs, 2),
             Table::num(bal.totalGBs, 2),
             Table::num(100.0 * (bal.totalGBs / seq.totalGBs - 1.0),
                        1)});
    }
    cyclops::bench::emit(opts, table);
    cyclops::bench::writeManifest(opts, "bench_alloc_policy");
    return 0;
}
