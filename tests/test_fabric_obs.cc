/**
 * @file
 * Fabric observability tests (DESIGN.md section 17): per-link
 * telemetry conservation, the packet-latency split, histogram JSON
 * export corner cases, epoch sampling at full per-link cardinality,
 * and the determinism bar — enabling any of it must not move a
 * simulated cycle.
 */

#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "common/log.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "net/fabric.h"
#include "workloads/multichip.h"

using namespace cyclops;
using namespace cyclops::net;
using workloads::MultiChipConfig;
using workloads::MultiChipResult;

namespace
{

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

NetConfig
shape(u32 x, u32 y, u32 z, bool torus)
{
    NetConfig net;
    net.dimX = x;
    net.dimY = y;
    net.dimZ = z;
    net.torus = torus;
    return net;
}

/**
 * Drive @p n random messages through @p fabric and drain it. The
 * fabric is passed in (not returned): its gauges capture `this`, so a
 * Fabric must never be moved.
 */
void
drive(Fabric &fabric, u32 n)
{
    const NetConfig &net = fabric.config().net;
    u64 seed = 0x452821E638D01377ull;
    for (u32 i = 0; i < n; ++i) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        const u32 s = u32(seed >> 33) % net.numChips();
        u32 d = u32(seed >> 13) % net.numChips();
        if (d == s)
            d = (d + 1) % net.numChips();
        fabric.inject(i / 2, s, d, 8 + u32(seed % 500));
    }
    fabric.drain();
}

/**
 * Render a StatGroup through writeStatsJson and return the text. The
 * file is named after the running test: ctest runs each test as its
 * own process, so a shared name would let concurrent tests overwrite
 * each other's output.
 */
std::string
statsJsonOf(const StatGroup &stats, Cycle cycles,
            const EpochSampler *sampler = nullptr)
{
    const std::string path = tempPath(
        std::string("fabric_obs_stats_") +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".json");
    std::FILE *f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    writeStatsJson(f, stats, cycles, sampler);
    std::fclose(f);
    return slurp(path);
}

} // namespace

// ---------------------------------------------------------------------------
// Per-link telemetry conservation
// ---------------------------------------------------------------------------

TEST(FabricObs, PerLinkCountersTieToGlobals)
{
    const NetConfig net = shape(2, 2, 2, true);
    Fabric fabric(FabricConfig{net});
    drive(fabric, 300);

    // Every flit of a (src, dst) message crosses every link of its DOR
    // route, so summing link flits reproduces pair flits x hops; link
    // stalls sum to the global queueCycles; busy == flits (one flit
    // per cycle per link).
    u64 linkFlits = 0, linkStalls = 0;
    u32 existing = 0;
    for (const Fabric::Link &l : fabric.links()) {
        if (!l.exists) {
            EXPECT_EQ(l.flits.value(), 0u);
            continue;
        }
        ++existing;
        EXPECT_EQ(l.busyCycles.value(), l.flits.value())
            << l.src << "->" << l.dst;
        linkFlits += l.flits.value();
        linkStalls += l.stallCycles.value();
    }
    EXPECT_EQ(existing, fabric.numLinks());
    // 8 chips x 3 plus-direction links: on an extent-2 torus the
    // minus wire duplicates the plus wire and is not registered.
    EXPECT_EQ(fabric.numLinks(), 24u);

    u64 pairFlitHops = 0, pairFlits = 0, pairMsgs = 0, pairBytes = 0;
    for (u32 s = 0; s < net.numChips(); ++s) {
        for (u32 d = 0; d < net.numChips(); ++d) {
            if (s == d)
                continue;
            pairFlitHops += fabric.pairFlits(s, d) *
                            fabric.topology().hops(s, d);
            pairFlits += fabric.pairFlits(s, d);
            pairMsgs += fabric.pairMessages(s, d);
            pairBytes += fabric.pairBytes(s, d);
        }
    }
    EXPECT_EQ(linkFlits, pairFlitHops);
    EXPECT_EQ(pairFlits, fabric.flitsInjected());
    EXPECT_EQ(pairMsgs, fabric.messages());
    EXPECT_EQ(pairBytes, fabric.bytesMoved());
    EXPECT_EQ(linkStalls, fabric.queueCycles());
    EXPECT_GT(linkStalls, 0u) << "traffic never contended";
}

TEST(FabricObs, LatencySplitIsExact)
{
    Fabric fabric(FabricConfig{shape(4, 2, 1, false)});
    drive(fabric, 200);
    const Histogram &total = fabric.latencyTotal();
    const Histogram &queue = fabric.latencyQueue();
    const Histogram &wire = fabric.latencyWire();
    // One sample per message in each histogram, and the queue/wire
    // decomposition of every message's latency sums exactly.
    EXPECT_EQ(total.samples(), fabric.messages());
    EXPECT_EQ(queue.samples(), fabric.messages());
    EXPECT_EQ(wire.samples(), fabric.messages());
    EXPECT_EQ(total.sum(), queue.sum() + wire.sum());
    EXPECT_GT(wire.sum(), 0u);
}

TEST(FabricObs, StatsRegistryNamesMatchLinkRecords)
{
    Fabric fabric(FabricConfig{shape(2, 2, 1, true)});
    drive(fabric, 100);
    StatGroup &stats = fabric.stats();
    EXPECT_EQ(stats.counterValue("fabric.flitsInFlight"), 0u);
    EXPECT_EQ(stats.counterValue("fabric.flitsInjected"),
              fabric.flitsInjected());
    EXPECT_EQ(stats.counterValue("fabric.flitsDelivered"),
              fabric.flitsInjected());
    for (const Fabric::Link &l : fabric.links()) {
        if (!l.exists)
            continue;
        const std::string base =
            strprintf("fabric.link.%u->%u", l.src, l.dst);
        EXPECT_EQ(stats.counterValue(base + ".flits"), l.flits.value());
        EXPECT_EQ(stats.counterValue(base + ".stallCycles"),
                  l.stallCycles.value());
        EXPECT_EQ(stats.counterValue(base + ".occPeak"), l.occPeak);
        // Drained fabric: no backlog left anywhere.
        EXPECT_EQ(stats.counterValue(base + ".occupancy"), 0u);
    }
    // 2x2x1 torus: 4 chips x 2 plus-direction links (extent-2 minus
    // wires are unregistered), each with 4 counters + 2 gauges, plus
    // the 12 fabric-wide scalars (6 traffic + 6 fault/retry).
    EXPECT_EQ(fabric.numLinks(), 8u);
    EXPECT_EQ(stats.scalarNames().size(), 12u + 8u * 6u);
}

TEST(FabricObs, OccupancyGaugeTracksBacklog)
{
    // Saturate one path: while messages are queued behind each other
    // the source link's occupancy gauge reads the backlog, and drain()
    // returns every gauge to zero.
    Fabric fabric(FabricConfig{shape(2, 1, 1, true)});
    for (u32 i = 0; i < 16; ++i)
        fabric.inject(0, 0, 1, 256);
    u64 backlog = 0;
    for (const auto &[name, value] : fabric.stats().counters())
        if (name.find(".occupancy") != std::string::npos)
            backlog += value;
    EXPECT_GT(backlog, 0u);
    fabric.drain();
    for (const auto &[name, value] : fabric.stats().counters()) {
        if (name.find(".occupancy") != std::string::npos) {
            EXPECT_EQ(value, 0u) << name;
        }
    }
    // The peak gauge keeps the high-water mark after the drain.
    u64 peak = 0;
    for (const Fabric::Link &l : fabric.links())
        peak = std::max(peak, l.occPeak);
    EXPECT_GT(peak, 0u);
}

// ---------------------------------------------------------------------------
// Histogram JSON/CSV export corner cases
// ---------------------------------------------------------------------------

TEST(FabricObs, HistogramJsonEmpty)
{
    Histogram h;
    StatGroup stats;
    stats.addHistogram("lat", &h);
    const std::string json = statsJsonOf(stats, 0);
    EXPECT_NE(json.find("\"lat\": {\"n\": 0, \"sum\": 0, \"max\": 0, "
                        "\"buckets\": [0, 0"),
              std::string::npos)
        << json;
}

TEST(FabricObs, HistogramJsonSingleBucket)
{
    Histogram h;
    h.sample(4);
    h.sample(5);
    h.sample(7); // all land in bucket 2: [4, 8)
    StatGroup stats;
    stats.addHistogram("lat", &h);
    const std::string json = statsJsonOf(stats, 10);
    EXPECT_NE(json.find("\"n\": 3, \"sum\": 16, \"max\": 7"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"buckets\": [0, 0, 3, 0"), std::string::npos)
        << json;
}

TEST(FabricObs, HistogramJsonOverflowBucket)
{
    Histogram h;
    h.sample(u64(1) << 40); // far beyond bucket 23: clamps, not wraps
    h.sample(~u64(0));
    StatGroup stats;
    stats.addHistogram("lat", &h);
    EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 2u);
    const std::string json = statsJsonOf(stats, 10);
    // The last bucket carries both samples and the max is preserved.
    EXPECT_NE(json.find(", 2]}"), std::string::npos) << json;
    EXPECT_NE(json.find("\"max\": 18446744073709551615"),
              std::string::npos)
        << json;
}

TEST(FabricObs, SamplerCsvAndSeriesJsonAgree)
{
    Fabric fabric(FabricConfig{shape(2, 1, 1, true)});
    EpochSampler sampler;
    sampler.configure(&fabric.stats(), 10);
    fabric.inject(0, 0, 1, 64);
    sampler.maybeSample(25);
    fabric.drain();
    sampler.finalize(40);
    // Epochs 10 and 20 from maybeSample(25); finalize(40) fills 30
    // and 40 — the final row lands on a boundary, so no forced extra.
    ASSERT_EQ(sampler.rows(), 4u);

    const std::string csvPath = tempPath("fabric_obs_series.csv");
    std::FILE *f = std::fopen(csvPath.c_str(), "w");
    ASSERT_NE(f, nullptr);
    sampler.writeCsv(f);
    std::fclose(f);
    const std::string csv = slurp(csvPath);
    EXPECT_EQ(csv.rfind("cycle,fabric.messages,", 0), 0u) << csv;
    EXPECT_NE(csv.find("fabric.link.0->1.flits"), std::string::npos);

    const std::string jsonPath = tempPath("fabric_obs_series.json");
    f = std::fopen(jsonPath.c_str(), "w");
    ASSERT_NE(f, nullptr);
    writeSeriesJson(f, sampler);
    std::fclose(f);
    const std::string json = slurp(jsonPath);
    EXPECT_NE(json.find("\"interval\": 10"), std::string::npos);
    EXPECT_NE(json.find("\"cycle\": [10, 20, 30, 40"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"droppedRows\": 0"), std::string::npos);
}

TEST(FabricObs, SamplerHandlesFullLinkCardinality)
{
    // 4x4x4 torus: 64 chips x 6 directions = 384 directed links, the
    // scale the sampler must sustain — each row is one linear pass
    // over the scalars (no per-row quadratic rescan).
    const NetConfig net = shape(4, 4, 4, true);
    Fabric fabric(FabricConfig{net});
    EXPECT_EQ(fabric.numLinks(), 384u);

    EpochSampler sampler;
    sampler.configure(&fabric.stats(), 100);
    const size_t columns = 12u + 384u * 6u;
    ASSERT_EQ(sampler.names().size(), columns);

    u64 seed = 0x13198A2E03707344ull;
    for (u32 i = 0; i < 1000; ++i) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        const u32 s = u32(seed >> 33) % 64;
        u32 d = u32(seed >> 13) % 64;
        if (d == s)
            d = (d + 1) % 64;
        fabric.inject(i * 10, s, d, 8 + u32(seed % 256));
        sampler.maybeSample(i * 10);
    }
    fabric.drain();
    sampler.finalize(10'000);
    ASSERT_EQ(sampler.rows(), 100u);
    // The final row carries the end-of-run totals, column for column.
    const auto &names = sampler.names();
    for (u32 c = 0; c < names.size(); ++c)
        EXPECT_EQ(sampler.value(sampler.rows() - 1, c),
                  fabric.stats().counterValue(names[c]))
            << names[c];
}

// ---------------------------------------------------------------------------
// Determinism: observability never moves a simulated cycle
// ---------------------------------------------------------------------------

TEST(FabricObs, ObservabilityDoesNotChangeTiming)
{
    MultiChipConfig mc;
    mc.dimX = 2;
    mc.dimY = 2;
    mc.dimZ = 1;
    mc.words = 16;
    mc.iters = 2;
    const MultiChipResult plain = workloads::runHaloExchange(mc);
    ASSERT_TRUE(plain.verified);

    MultiChipConfig instrumented = mc;
    instrumented.obs.statsInterval = 64;
    instrumented.obs.traceCats = kTraceAll;
    instrumented.obs.traceOut = tempPath("fabric_obs_trace.json");
    instrumented.obs.fabricStats = tempPath("fabric_obs.json");
    instrumented.obs.fabricHeatmap = tempPath("fabric_obs_heat.csv");
    const MultiChipResult traced =
        workloads::runHaloExchange(instrumented);
    ASSERT_TRUE(traced.verified);

    EXPECT_EQ(plain.cycles, traced.cycles);
    EXPECT_EQ(plain.instructions, traced.instructions);
    EXPECT_EQ(plain.fingerprint, traced.fingerprint);
}

TEST(FabricObs, FabricStatsAndHeatmapFilesWellFormed)
{
    MultiChipConfig mc;
    mc.dimX = 2;
    mc.dimY = 2;
    mc.dimZ = 1;
    mc.words = 8;
    mc.iters = 1;
    mc.obs.statsInterval = 64;
    mc.obs.traceCats = kTraceAll;
    mc.obs.traceOut = tempPath("fabric_file_trace.json");
    mc.obs.fabricStats = tempPath("fabric_file_stats.json");
    mc.obs.fabricHeatmap = tempPath("fabric_file_heat.csv");
    const MultiChipResult r = workloads::runHaloExchange(mc);
    ASSERT_TRUE(r.verified);

    // Structural spot-checks; the ctest smoke runs the full validator
    // (tools/check_fabric.py) on these same files.
    const std::string stats = slurp(mc.obs.fabricStats);
    EXPECT_NE(stats.find("\"schema\": \"cyclops-fabric-v1\""),
              std::string::npos);
    EXPECT_NE(stats.find("\"topology\""), std::string::npos);
    EXPECT_NE(stats.find("\"fabric.link.0->1.flits\""),
              std::string::npos);
    EXPECT_NE(stats.find("\"fabric.latency.total\""),
              std::string::npos);
    EXPECT_NE(stats.find("\"pairs\""), std::string::npos);
    EXPECT_NE(stats.find("\"links\""), std::string::npos);
    EXPECT_NE(stats.find("\"series\""), std::string::npos);

    const std::string heat = slurp(mc.obs.fabricHeatmap);
    EXPECT_EQ(heat.rfind("# cyclops-fabric-heatmap-v1\n", 0), 0u);
    EXPECT_NE(heat.find("kind,src,dst,dir,messages,bytes,flits,"
                        "busyCycles,stallCycles,occFlitCycles,occPeak"),
              std::string::npos);
    EXPECT_NE(heat.find("\npair,"), std::string::npos);
    EXPECT_NE(heat.find("\nlink,"), std::string::npos);

    // The merged trace carries the fabric process with per-link tracks
    // and flow endpoints.
    const std::string trace = slurp(mc.obs.traceOut);
    EXPECT_NE(trace.find("\"cyclops-fabric\""), std::string::npos);
    EXPECT_NE(trace.find("\"link.0->1\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"s\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"f\""), std::string::npos);
    EXPECT_NE(trace.find("\"cat\": \"net\""), std::string::npos);
}

TEST(FabricObs, RemoteWaitAttributionOnMultiChip)
{
    // Remote accesses wait on the fabric, not the local memory system:
    // the halo exchange must charge RemoteWait cycles, and the
    // attribution categories still cover every simulated cycle.
    MultiChipConfig mc;
    mc.dimX = 2;
    mc.dimY = 2;
    mc.dimZ = 1;
    mc.words = 16;
    mc.iters = 2;
    const MultiChipResult r = workloads::runHaloExchange(mc);
    ASSERT_TRUE(r.verified);
    EXPECT_GT(r.attr[arch::CycleCat::RemoteWait], 0u);
    // Each chip is gap-free over its own lifetime (chipCycles x 8 TUs)
    // and r.cycles is the slowest chip's finish, so the grand total is
    // a multiple of 8 bounded by [cycles x 8, cycles x 8 x 4].
    EXPECT_EQ(r.attr.total() % 8u, 0u);
    EXPECT_GE(r.attr.total(), u64(r.cycles) * 8);
    EXPECT_LE(r.attr.total(), u64(r.cycles) * 8 * 4);
}
