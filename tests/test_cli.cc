/**
 * @file
 * The shared option table (common/cli.h) and the bench table built on
 * it: every row parses to the configuration the hand-written parsers
 * produced, and every malformed value is refused naming its flag.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/parallel.h"
#include "common/trace.h"

using namespace cyclops;

namespace
{

/** Parse @p args (without argv[0]) through @p table. */
std::string
parse(cli::OptionTable &table, std::vector<const char *> args)
{
    args.insert(args.begin(), "tool");
    return table.parse(int(args.size()), args.data());
}

} // namespace

TEST(Cli, BenchDefaultsAreUntouched)
{
    bench::Options opts;
    cli::OptionTable table = bench::optionTable(opts);
    ASSERT_EQ(parse(table, {}), "");
    EXPECT_FALSE(opts.quick);
    EXPECT_FALSE(opts.csv);
    EXPECT_EQ(opts.scale, 100u);
    EXPECT_EQ(opts.jobs, 1u);
    EXPECT_EQ(opts.manifestOut, "");
    EXPECT_FALSE(opts.obs.anyOutput());
    EXPECT_EQ(opts.obs.traceCats, 0u);
    EXPECT_EQ(opts.obs.traceCapacity, 65536u);
    EXPECT_EQ(opts.obs.statsInterval, 0u);
    EXPECT_EQ(opts.obs.profInterval, 0u);
    EXPECT_FALSE(opts.fault.anyDegraded());
    EXPECT_EQ(opts.fault.watchdogCycles, 4'000'000u);
}

TEST(Cli, EveryBenchRowParsesToItsField)
{
    bench::Options opts;
    cli::OptionTable table = bench::optionTable(opts);
    ASSERT_EQ(parse(table,
                    {"--quick", "--csv", "--scale", "50", "--jobs", "1",
                     "--disable-tu", "3", "--disable-tu", "0x5",
                     "--disable-quad", "2", "--disable-fpu", "1",
                     "--disable-dcache", "4", "--disable-icache", "6",
                     "--disable-bank", "7", "--cache-ways", "2",
                     "--watchdog", "100000", "--trace-out", "t-%t.json",
                     "--trace-cats", "mem,net", "--trace-capacity", "1024",
                     "--stats-json", "s.json", "--stats-csv", "s.csv",
                     "--stats-interval", "100", "--prof-out", "p",
                     "--prof-interval", "64", "--fabric-stats", "f.json",
                     "--fabric-heatmap", "h.csv", "--manifest", "m.json"}),
              "");
    EXPECT_TRUE(opts.quick);
    EXPECT_TRUE(opts.csv);
    EXPECT_EQ(opts.scale, 50u);
    EXPECT_EQ(opts.jobs, 1u);
    EXPECT_EQ(opts.fault.disabledTus, (std::vector<u32>{3, 5}));
    EXPECT_EQ(opts.fault.disabledQuads, (std::vector<u32>{2}));
    EXPECT_EQ(opts.fault.disabledFpus, (std::vector<u32>{1}));
    EXPECT_EQ(opts.fault.disabledDcaches, (std::vector<u32>{4}));
    EXPECT_EQ(opts.fault.disabledIcaches, (std::vector<u32>{6}));
    EXPECT_EQ(opts.fault.disabledBanks, (std::vector<u32>{7}));
    EXPECT_EQ(opts.fault.cacheWays, 2u);
    EXPECT_EQ(opts.fault.watchdogCycles, 100000u);
    EXPECT_EQ(opts.obs.traceOut, "t-%t.json");
    EXPECT_EQ(opts.obs.traceCats, 0x21u); // mem (bit 0), net (bit 5)
    EXPECT_EQ(opts.obs.traceCapacity, 1024u);
    EXPECT_EQ(opts.obs.statsJson, "s.json");
    EXPECT_EQ(opts.obs.statsCsv, "s.csv");
    EXPECT_EQ(opts.obs.statsInterval, 100u);
    EXPECT_EQ(opts.obs.profOut, "p");
    EXPECT_EQ(opts.obs.profInterval, 64u);
    EXPECT_EQ(opts.obs.fabricStats, "f.json");
    EXPECT_EQ(opts.obs.fabricHeatmap, "h.csv");
    EXPECT_EQ(opts.manifestOut, "m.json");
}

TEST(Cli, DerivedObservabilityDefaults)
{
    // --trace-out alone records every category; --prof-out alone
    // samples every 512 cycles. An explicit "none" still means all.
    for (const char *cats : {"", "none"}) {
        ObsConfig obs;
        cli::OptionTable table;
        table.addObs(obs);
        std::string manifest;
        table.addOutputs(obs, manifest);
        std::vector<const char *> args = {"--trace-out", "t.json",
                                          "--prof-out", "p"};
        if (*cats) {
            args.push_back("--trace-cats");
            args.push_back(cats);
        }
        ASSERT_EQ(parse(table, args), "");
        EXPECT_EQ(obs.traceCats, 0x3Fu);
        EXPECT_EQ(obs.profInterval, 512u);
    }
    // Without an output file the category list and period stay as given.
    ObsConfig obs;
    cli::OptionTable table;
    table.addObs(obs);
    ASSERT_EQ(parse(table, {"--trace-cats", "sched"}), "");
    EXPECT_EQ(obs.traceCats, traceBit(TraceCat::Sched));
    EXPECT_EQ(obs.profInterval, 0u);
}

TEST(Cli, JobsSaturateAndResolve)
{
    u32 jobs = 7;
    EXPECT_EQ(cli::parseJobs("0", &jobs), "");
    EXPECT_EQ(jobs, SimPool::resolveJobs(0));
    EXPECT_EQ(cli::parseJobs("1", &jobs), "");
    EXPECT_EQ(jobs, 1u);
    EXPECT_EQ(cli::parseJobs("99999999999", &jobs), "");
    EXPECT_EQ(jobs, SimPool::resolveJobs(~u32(0)));
    jobs = 7;
    EXPECT_NE(cli::parseJobs("-1", &jobs), "");
    EXPECT_NE(cli::parseJobs("abc", &jobs), "");
    EXPECT_EQ(jobs, 7u);
}

TEST(Cli, EveryMalformedValueNamesItsFlag)
{
    const char *const u32Flags[] = {
        "--scale", "--disable-tu", "--disable-quad", "--disable-fpu",
        "--disable-dcache", "--disable-icache", "--disable-bank",
        "--cache-ways", "--trace-capacity", "--stats-interval",
        "--prof-interval"};
    const char *const numberFlags[] = {"--jobs", "--watchdog"};
    const char *const valueFlags[] = {
        "--trace-out", "--trace-cats", "--stats-json", "--stats-csv",
        "--prof-out", "--fabric-stats", "--fabric-heatmap", "--manifest"};

    const auto refused = [](std::vector<const char *> args,
                            const std::string &expect) {
        bench::Options opts;
        cli::OptionTable table = bench::optionTable(opts);
        EXPECT_EQ(parse(table, args), expect);
    };
    for (const char *f : u32Flags) {
        refused({f, "4294967296"},
                std::string(f) +
                    ": '4294967296' is not a number in 0..4294967295");
        refused({f, "abc"}, std::string(f) +
                                ": 'abc' is not a number in 0..4294967295");
        refused({f}, std::string(f) + " needs a value");
    }
    for (const char *f : numberFlags) {
        refused({f, "12x"},
                std::string(f) + ": '12x' is not a nonnegative number");
        refused({f}, std::string(f) + " needs a value");
    }
    for (const char *f : valueFlags)
        refused({"--quick", f}, std::string(f) + " needs a value");
    refused({"--trace-cats", "mem,bogus"},
            "--trace-cats: unknown trace category 'bogus' (valid: "
            "mem,cache,barrier,kernel,sched,net,all,none)");
    refused({"--bogus"}, "unknown argument '--bogus'");
    refused({"prog.s"}, "unknown argument 'prog.s'");
}

TEST(Cli, OperandsAndUsage)
{
    bool flag = false;
    u32 n = 0;
    cli::OptionTable table("prog.s", "a note");
    table.add(cli::flag("--flag", &flag, "a switch"));
    table.add(cli::u32Value("-n", &n, "a count"));
    std::vector<std::string> files;
    std::vector<const char *> args = {"tool", "a.s", "--flag", "-n", "3",
                                      "b.s"};
    ASSERT_EQ(table.parse(int(args.size()), args.data(), &files), "");
    EXPECT_TRUE(flag);
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(files, (std::vector<std::string>{"a.s", "b.s"}));
    EXPECT_EQ(table.usage("tool"),
              "usage: tool [options] prog.s\n"
              "  --flag                 a switch\n"
              "  -n N                   a count\n"
              "a note\n");
}
