/**
 * @file
 * Host-observability tests (common/hostobs.h, DESIGN.md section 15).
 *
 * Two pillars:
 *  - zero perturbation: enabling host telemetry must leave simulated
 *    cycles, instructions, attribution and guest trace output
 *    byte-identical;
 *  - export plumbing: host stats land in their own "host."-prefixed
 *    group, host trace events on their own Chrome-trace process, and
 *    run manifests round-trip the headline fields.
 */

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "arch/chip.h"
#include "common/config.h"
#include "common/hostobs.h"
#include "common/trace.h"
#include "workloads/stream.h"

using namespace cyclops;
using namespace cyclops::workloads;

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

/** Small STREAM point exercising the FPU and bank traffic. */
StreamConfig
streamPoint()
{
    StreamConfig cfg;
    cfg.kernel = StreamKernel::Triad;
    cfg.threads = 24;
    cfg.elementsPerThread = 200;
    return cfg;
}

ChipConfig
chipWith(bool hostObs)
{
    ChipConfig cfg;
    cfg.obs.hostObs = hostObs;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------------

TEST(HostObs, SerialEngineCollectsRunWallOnly)
{
    const StreamResult r = runStream(streamPoint(), chipWith(true));
    const HostObsSnapshot &s = r.host;
    ASSERT_TRUE(s.enabled);
    EXPECT_GT(s.runWallNanos, 0u);
    EXPECT_GT(s.peakRssKb, 0u);

    const StreamResult off = runStream(streamPoint(), chipWith(false));
    EXPECT_FALSE(off.host.enabled);
    EXPECT_EQ(off.host.runWallNanos, 0u);
}

TEST(HostObs, SnapshotAddMergesRuns)
{
    HostObsSnapshot a, b;
    a.enabled = true;
    a.runWallNanos = 100;
    a.peakRssKb = 700;
    b = a;
    b.peakRssKb = 900;
    a.add(b);
    EXPECT_TRUE(a.enabled);
    EXPECT_EQ(a.runWallNanos, 200u);
    EXPECT_EQ(a.peakRssKb, 900u);
}

// ---------------------------------------------------------------------------
// Zero perturbation: simulated results are byte-identical with host
// telemetry on or off
// ---------------------------------------------------------------------------

TEST(HostObs, EnablingDoesNotChangeSimulatedResults)
{
    const StreamResult off = runStream(streamPoint(), chipWith(false));
    const StreamResult on = runStream(streamPoint(), chipWith(true));
    EXPECT_EQ(off.simCycles, on.simCycles);
    EXPECT_EQ(off.iterationCycles, on.iterationCycles);
    EXPECT_EQ(off.instructions, on.instructions);
    for (u32 c = 0; c <= arch::kNumCycleCats; ++c)
        EXPECT_EQ(off.attr.value(c), on.attr.value(c)) << "attr cat " << c;
}

TEST(HostObs, GuestTraceBytesIdenticalWithHostObsOnOrOff)
{
    // Guest-category traces must not contain host events (they live
    // behind TraceCat::Host) and must be byte-identical either way.
    auto traceWith = [&](bool hostObs) {
        ChipConfig cfg = chipWith(hostObs);
        cfg.obs.traceOut =
            tempPath(hostObs ? "hosttrace_on.json" : "hosttrace_off.json");
        cfg.obs.traceCats = u8(traceBit(TraceCat::Mem) |
                               traceBit(TraceCat::Barrier) |
                               traceBit(TraceCat::Kernel));
        runStream(streamPoint(), cfg);
        return slurp(cfg.obs.traceOut);
    };
    const std::string off = traceWith(false);
    const std::string on = traceWith(true);
    EXPECT_EQ(off, on);
    EXPECT_EQ(on.find("cyclops-host"), std::string::npos);
}

TEST(HostObs, StatsJsonGainsHostSectionOnlyWhenEnabled)
{
    auto statsWith = [&](bool hostObs) {
        ChipConfig cfg = chipWith(hostObs);
        cfg.obs.statsJson =
            tempPath(hostObs ? "hostobs_on.json" : "hostobs_off.json");
        runStream(streamPoint(), cfg);
        return slurp(cfg.obs.statsJson);
    };
    const std::string off = statsWith(false);
    const std::string on = statsWith(true);
    EXPECT_EQ(off.find("hostObs"), std::string::npos);
    EXPECT_NE(on.find("\"hostObs\""), std::string::npos);
    EXPECT_NE(on.find("\"host.runWallNanos\""), std::string::npos);
    EXPECT_NE(on.find("\"host.peakRssKb\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Host trace export
// ---------------------------------------------------------------------------

TEST(HostObs, HostTraceEventsLandOnOwnProcess)
{
    ChipConfig cfg = chipWith(true);
    cfg.obs.traceOut = tempPath("hosttrace_host.json");
    cfg.obs.traceCats = kTraceAll;
    runStream(streamPoint(), cfg);
    const std::string json = slurp(cfg.obs.traceOut);

    // Host process metadata, the engine track, and service-window
    // spans in the host category.
    EXPECT_NE(json.find("cyclops-host"), std::string::npos);
    EXPECT_NE(json.find("\"engine\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"host\""), std::string::npos);
    EXPECT_NE(json.find("\"window\""), std::string::npos);
    EXPECT_NE(json.find("\"droppedHostEvents\": 0"), std::string::npos);
}

TEST(HostObs, NoHostTraceWithoutHostCat)
{
    ChipConfig cfg = chipWith(true);
    cfg.obs.traceOut = tempPath("hosttrace_guestonly.json");
    cfg.obs.traceCats = u8(traceBit(TraceCat::Mem));
    runStream(streamPoint(), cfg);
    const std::string json = slurp(cfg.obs.traceOut);
    EXPECT_EQ(json.find("cyclops-host"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Run manifests
// ---------------------------------------------------------------------------

TEST(HostObs, ManifestWriterRoundTripsHeadlineFields)
{
    const std::string path = tempPath("manifest.json");
    ChipConfig cfg;
    cfg.obs.hostObs = true;
    RunManifest m;
    m.tool = "unit-test";
    m.workload = "stream \"quoted\"";
    m.seed = 42;
    m.config = &cfg;
    m.simCycles = 1000;
    m.instructions = 5000;
    m.wallSeconds = 0.5;
    m.exitReason = "allHalted";
    writeRunManifest(path, m);

    const std::string json = slurp(path);
    EXPECT_NE(json.find("\"schema\": \"cyclops-manifest-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"tool\": \"unit-test\""), std::string::npos);
    EXPECT_NE(json.find("stream \\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"hostObs\": true"), std::string::npos);
    EXPECT_EQ(json.find("\"engine"), std::string::npos);
    EXPECT_NE(json.find("\"simCycles\": 1000"), std::string::npos);
    EXPECT_NE(json.find("\"exitReason\": \"allHalted\""),
              std::string::npos);
    EXPECT_NE(json.find("\"hash\": \""), std::string::npos);
    std::remove(path.c_str());
}

TEST(HostObs, ConfigHashTracksResultAffectingFieldsOnly)
{
    ChipConfig a, b;
    EXPECT_EQ(a.hash(), b.hash());

    // Host telemetry never changes results, so it never changes the
    // hash (an instrumented rerun of a manifest is comparable).
    b.obs.hostObs = true;
    EXPECT_EQ(a.hash(), b.hash());

    // Structural, latency and fault-map changes do.
    b = ChipConfig{};
    b.numThreads = 64;
    EXPECT_NE(a.hash(), b.hash());
    b = ChipConfig{};
    b.lat.memLocalHit += 1;
    EXPECT_NE(a.hash(), b.hash());
    b = ChipConfig{};
    b.fault.disabledTus.push_back(3);
    EXPECT_NE(a.hash(), b.hash());
}

TEST(HostObs, GitDescribeIsNonEmpty)
{
    EXPECT_NE(gitDescribe(), nullptr);
    EXPECT_GT(std::string(gitDescribe()).size(), 0u);
}
