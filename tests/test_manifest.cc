/**
 * @file
 * Run-manifest tests (common/manifest.h, DESIGN.md section 15): the
 * manifest round-trips its headline fields, the config hash tracks
 * only result-affecting fields, and a manifest or trace write that
 * fails ends the run instead of leaving no file behind silently.
 */

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include <unistd.h>

#include "common/config.h"
#include "common/log.h"
#include "common/manifest.h"
#include "common/trace.h"

using namespace cyclops;

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

} // namespace

TEST(RunManifest, ManifestWriterRoundTripsHeadlineFields)
{
    const std::string path = tempPath("manifest.json");
    ChipConfig cfg;
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
    EXPECT_NE(json.find("\"clockHz\": "), std::string::npos);
    EXPECT_EQ(json.find("\"engine"), std::string::npos);
    EXPECT_NE(json.find("\"simCycles\": 1000"), std::string::npos);
    EXPECT_NE(json.find("\"exitReason\": \"allHalted\""),
              std::string::npos);
    EXPECT_NE(json.find("\"hash\": \""), std::string::npos);
    std::remove(path.c_str());
}

TEST(RunManifest, ConfigHashTracksResultAffectingFieldsOnly)
{
    ChipConfig a, b;
    EXPECT_EQ(a.hash(), b.hash());

    // Observability never changes results, so it never changes the
    // hash (an instrumented rerun of a manifest is comparable).
    b.obs.traceCats = kTraceAll;
    EXPECT_EQ(a.hash(), b.hash());
    b.obs.statsInterval = 1000;
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

TEST(RunManifest, GitDescribeIsNonEmpty)
{
    EXPECT_NE(gitDescribe(), nullptr);
    EXPECT_GT(std::string(gitDescribe()).size(), 0u);
}

// /dev/full accepts the open and fails every flush with ENOSPC, so the
// failure only shows at closeOutput(): the writers must exit, not
// return as if the file had been written.
TEST(RunManifest, WritesToAFullDeviceAreFatal)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full is not available";
    ChipConfig cfg;
    RunManifest m;
    m.tool = "unit-test";
    m.config = &cfg;
    EXPECT_EXIT(writeRunManifest("/dev/full", m),
                testing::ExitedWithCode(1), "cannot write '/dev/full'");

    Tracer tracer;
    tracer.configure(kTraceAll, 16);
    tracer.instant(TraceCat::Mem, 0, "load", 5);
    EXPECT_EXIT(tracer.writeChromeJson("/dev/full", 1),
                testing::ExitedWithCode(1), "cannot write '/dev/full'");
}
