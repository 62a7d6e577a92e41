/**
 * @file
 * "Figure 8": multi-chip scaling on the cycle-driven fabric — the
 * cellular-computing claim of paper sections 1 and 2.2 measured
 * instead of asserted. Tori from 2x2x1 up to 4x4x4 run the halo
 * exchange and distributed STREAM workloads through the remote-access
 * window; the table reports simulated cycles, fabric traffic and
 * queueing as the system grows.
 *
 * The paper gives no multi-chip measurements (its evaluation stops at
 * one chip), so this sweep has no paper numbers to match; the golden
 * CSV locks the model against regressions instead. Cycle counts are
 * deterministic — see tests/test_determinism.cc — so the golden is
 * exact up to the shared tolerance band.
 */

#include "bench_util.h"
#include "workloads/multichip.h"

using namespace cyclops;
using namespace cyclops::workloads;
using cyclops::bench::Options;

namespace
{

struct Shape
{
    u32 x, y, z;
};

struct Point
{
    Shape shape;
    bool halo; ///< halo exchange or distributed STREAM
};

MultiChipResult
runPoint(const Options &opts, const Point &p)
{
    MultiChipConfig cfg;
    cfg.dimX = p.shape.x;
    cfg.dimY = p.shape.y;
    cfg.dimZ = p.shape.z;
    cfg.torus = true;
    cfg.threads = 8;
    cfg.words = p.halo ? 32 : 64;
    cfg.iters = 2;
    cfg.obs = opts.obs;
    cfg.obs.tag = strprintf("fig8.%ux%ux%u.%s", p.shape.x, p.shape.y,
                            p.shape.z, p.halo ? "halo" : "stream");
    return p.halo ? runHaloExchange(cfg) : runDistributedStream(cfg);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts =
        cyclops::bench::parseOptions(argc, argv,
                                     cyclops::bench::kObsRows |
                                         cyclops::bench::kFabricRows);
    cyclops::bench::banner(
        opts, "Figure 8: multi-chip fabric scaling (2x2x1 .. 4x4x4 torus)",
        "sections 1, 2.2 - cellular systems scale by replicating chips "
        "on a 3-D torus with 12 GB/s I/O per chip");

    std::vector<Shape> shapes = {{2, 2, 1}, {2, 2, 2}};
    if (!opts.quick) {
        shapes.push_back({4, 2, 2});
        shapes.push_back({4, 4, 2});
        shapes.push_back({4, 4, 4});
    }
    std::vector<Point> points;
    for (const Shape &s : shapes) {
        points.push_back({s, true});
        points.push_back({s, false});
    }

    const std::vector<MultiChipResult> results = cyclops::bench::sweep(
        opts, points, [&](const Point &p) { return runPoint(opts, p); });

    Table table({"shape", "chips", "workload", "cycles", "instructions",
                 "messages", "bytes", "queue cycles/msg"});
    u64 totalCycles = 0, totalInstructions = 0;
    for (size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        const MultiChipResult &r = results[i];
        const std::string flag = r.verified ? "" : "!";
        table.addRow(
            {strprintf("%ux%ux%u", p.shape.x, p.shape.y, p.shape.z),
             Table::num(s64(p.shape.x * p.shape.y * p.shape.z)),
             std::string(p.halo ? "halo" : "stream") + flag,
             Table::num(s64(r.cycles)), Table::num(s64(r.instructions)),
             Table::num(s64(r.messages)), Table::num(s64(r.bytesMoved)),
             Table::num(r.messages
                            ? double(r.queueCycles) / double(r.messages)
                            : 0.0,
                        1)});
        totalCycles += r.cycles;
        totalInstructions += r.instructions;
    }
    cyclops::bench::emit(opts, table);
    cyclops::bench::note(
        opts, "Traffic grows with the chip count while per-chip load "
              "stays fixed (weak scaling); queueing per message grows "
              "with hop count and contention. '!' marks a run whose "
              "host-side verification failed.");
    cyclops::bench::writeManifest(opts, "bench_fig8_multichip",
                                  totalCycles, totalInstructions);
    return 0;
}
