/**
 * @file
 * Reproduces Figure 5: one parallel STREAM on 126 threads, total
 * bandwidth vs elements/thread, under the paper's four modes:
 *
 *  (a) blocked partitioning        (b) cyclic partitioning (groups of 8)
 *  (c) blocked + local caches      (d) (c) + 4-way unrolled loops
 *
 * Shape targets: blocked > cyclic; local caches up to +60% for small
 * vectors and ~+30% (Scale) for large; unrolling helps in-cache (the
 * paper reports >80 GB/s peaks in panel d) but not memory-bound sizes.
 *
 * All four panels form one mode x size x kernel grid of independent
 * simulations, dispatched together through the --jobs thread pool.
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

struct Mode
{
    const char *title;
    const char *claim;
    void (*tweak)(StreamConfig &);
};

const Mode kModes[] = {
    {"Figure 5(a): blocked partitioning (126 threads)",
     "each thread loads whole cache lines; the upper baseline",
     [](StreamConfig &) {}},
    {"Figure 5(b): cyclic partitioning (126 threads, groups of 8)",
     "a group shares each line while it is still being fetched: "
     "lower bandwidth than blocked",
     [](StreamConfig &cfg) {
         cfg.partition = StreamPartition::Cyclic;
     }},
    {"Figure 5(c): blocked partitioning with local caches",
     "interest groups map each thread's block to its local cache: "
     "up to +60% for small vectors, ~+30% for large (Scale)",
     [](StreamConfig &cfg) { cfg.localCaches = true; }},
    {"Figure 5(d): unrolled loops, block partitioning, local caches",
     "4-way unrolling hides load/store latency in-cache (>80 GB/s "
     "peaks); no effect when memory-bandwidth bound",
     [](StreamConfig &cfg) {
         cfg.localCaches = true;
         cfg.unroll = 4;
     }},
};
constexpr size_t kNumModes = 4;

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = cyclops::bench::parseOptions(
        argc, argv, cyclops::bench::kObsRows | cyclops::bench::kFaultRows);

    std::vector<u32> sizes = {112, 248, 400,  600,  800,
                              1000, 1200, 1400, 1600, 2000};
    if (opts.quick)
        sizes = {112, 400, 1200, 2000};

    struct Point
    {
        size_t mode;
        u32 size;
        StreamKernel kernel;
    };
    std::vector<Point> points;
    for (size_t m = 0; m < kNumModes; ++m)
        for (u32 size : sizes)
            for (StreamKernel kernel : kKernels)
                points.push_back({m, size, kernel});

    const std::vector<StreamResult> results = cyclops::bench::sweep(
        opts, points, [&](const Point &p) {
            StreamConfig cfg;
            cfg.kernel = p.kernel;
            cfg.threads = 126;
            cfg.elementsPerThread = p.size;
            kModes[p.mode].tweak(cfg);
            return runStream(
                cfg, cyclops::bench::chipConfig(
                         opts, strprintf("fig5.m%zu.e%u.%s", p.mode,
                                         p.size,
                                         streamKernelName(p.kernel))));
        });

    size_t idx = 0;
    for (const Mode &mode : kModes) {
        cyclops::bench::banner(opts, mode.title, mode.claim);
        Table table({"elements/thread", "Copy GB/s", "Scale GB/s",
                     "Add GB/s", "Triad GB/s"});
        for (u32 size : sizes) {
            std::vector<std::string> row{Table::num(s64(size))};
            for (size_t k = 0; k < kNumKernels; ++k) {
                const StreamResult &result = results[idx++];
                row.push_back(Table::num(result.totalGBs, 2));
                if (!result.verified)
                    row.back() += "!";
            }
            table.addRow(row);
        }
        cyclops::bench::emit(opts, table);
    }
    cyclops::bench::writeManifest(opts, "bench_fig5_stream_modes");
    return 0;
}
