#include "common/cli.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "common/log.h"
#include "common/parallel.h"
#include "common/parse.h"
#include "common/trace.h"

namespace cyclops::cli
{

namespace
{

std::string
toU32(const char *v, u32 *out)
{
    return parseU32(v, out)
               ? std::string()
               : strprintf("'%s' is not a number in 0..4294967295", v);
}

std::string
toU64(const char *v, u64 *out)
{
    return parseU64(v, out)
               ? std::string()
               : strprintf("'%s' is not a nonnegative number", v);
}

} // namespace

Option
flag(const char *name, bool *out, const char *help, bool value)
{
    return {name, nullptr, help, [out, value](const char *) {
                *out = value;
                return std::string();
            }};
}

Option
u32Value(const char *name, u32 *out, const char *help)
{
    return {name, "N", help,
            [out](const char *v) { return toU32(v, out); }};
}

Option
u64Value(const char *name, u64 *out, const char *help)
{
    return {name, "N", help,
            [out](const char *v) { return toU64(v, out); }};
}

Option
u32List(const char *name, std::vector<u32> *out, const char *help)
{
    return {name, "N", help, [out](const char *v) {
                u32 x = 0;
                std::string why = toU32(v, &x);
                if (why.empty())
                    out->push_back(x);
                return why;
            }};
}

Option
text(const char *name, std::string *out, const char *help,
     const char *operand)
{
    return {name, operand, help, [out](const char *v) {
                *out = v;
                return std::string();
            }};
}

std::string
parseJobs(const char *text, u32 *out)
{
    u64 v = 0;
    std::string why = toU64(text, &v);
    if (why.empty())
        *out = SimPool::resolveJobs(
            u32(std::min<u64>(v, std::numeric_limits<u32>::max())));
    return why;
}

Option
jobs(const char *name, u32 *out, const char *help)
{
    return {name, "N", help,
            [out](const char *v) { return parseJobs(v, out); }};
}

Option
watchdog(u64 *cycles)
{
    return u64Value("--watchdog", cycles,
                    "deadlock watchdog window in cycles (0 = off)");
}

Option
manifest(std::string *path)
{
    return text("--manifest", path,
                "run manifest JSON (config hash, git describe)");
}

OptionTable::OptionTable(std::string operands, std::string note)
    : operands_(std::move(operands)), note_(std::move(note))
{
}

void
OptionTable::add(Option row)
{
    rows_.push_back(std::move(row));
}

void
OptionTable::addObs(ObsConfig &obs)
{
    obs_ = &obs;
    add(text("--trace-out", &obs.traceOut,
             "Chrome-trace JSON (Perfetto); alone: every category"));
    add({"--trace-cats", "LIST",
         "mem,cache,barrier,kernel,sched,net, all or none",
         [&obs](const char *v) {
             return parseTraceCats(v, &obs.traceCats);
         }});
    add(u32Value("--trace-capacity", &obs.traceCapacity,
                 "tracer ring size in events (default 65536)"));
    add(text("--stats-json", &obs.statsJson,
             "end-of-run counters and histograms as JSON"));
    add(text("--stats-csv", &obs.statsCsv,
             "epoch-sampled counter series as CSV"));
    add(u32Value("--stats-interval", &obs.statsInterval,
                 "stats sample period in cycles (0 = off)"));
}

void
OptionTable::addOutputs(ObsConfig &obs, std::string &manifest)
{
    obs_ = &obs;
    add(text("--prof-out", &obs.profOut,
             "PC profile: P (JSON), P.folded, P.heatmap.csv"));
    add(u32Value("--prof-interval", &obs.profInterval,
                 "profile period in cycles (512 with --prof-out)"));
    add(cli::manifest(&manifest));
}

void
OptionTable::addFabric(ObsConfig &obs)
{
    add(text("--fabric-stats", &obs.fabricStats,
             "fabric stats JSON, cyclops-fabric-v1 (multi-chip)"));
    add(text("--fabric-heatmap", &obs.fabricHeatmap,
             "link/pair congestion heatmap CSV (multi-chip)"));
}

void
OptionTable::addFault(FaultConfig &fault)
{
    add(u32List("--disable-tu", &fault.disabledTus,
                "fuse off thread unit N (repeatable)"));
    add(u32List("--disable-quad", &fault.disabledQuads,
                "fuse off quad N: TUs, FPU, D-cache (repeatable)"));
    add(u32List("--disable-fpu", &fault.disabledFpus,
                "fuse off quad N's FPU (repeatable)"));
    add(u32List("--disable-dcache", &fault.disabledDcaches,
                "fuse off D-cache N (repeatable)"));
    add(u32List("--disable-icache", &fault.disabledIcaches,
                "fuse off I-cache N (repeatable)"));
    add(u32List("--disable-bank", &fault.disabledBanks,
                "fail memory bank N (repeatable)"));
    add(u32Value("--cache-ways", &fault.cacheWays,
                 "live ways per D-cache set (0 = all)"));
    add(watchdog(&fault.watchdogCycles));
}

std::string
OptionTable::parse(int argc, const char *const *argv,
                   std::vector<std::string> *operands)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (arg[0] != '-' && operands) {
            operands->push_back(arg);
            continue;
        }
        const auto row = std::find_if(
            rows_.begin(), rows_.end(),
            [arg](const Option &r) { return std::strcmp(r.name, arg) == 0; });
        if (row == rows_.end())
            return strprintf("unknown argument '%s'", arg);
        const char *value = nullptr;
        if (row->operand) {
            if (i + 1 >= argc)
                return strprintf("%s needs a value", arg);
            value = argv[++i];
        }
        if (const std::string why = row->set(value); !why.empty())
            return strprintf("%s: %s", arg, why.c_str());
    }
    if (obs_) {
        if (!obs_->traceOut.empty() && obs_->traceCats == 0)
            obs_->traceCats = kTraceAll;
        if (!obs_->profOut.empty() && obs_->profInterval == 0)
            obs_->profInterval = 512;
    }
    return "";
}

std::string
OptionTable::usage(const char *argv0) const
{
    std::string out = strprintf("usage: %s [options]%s%s\n", argv0,
                                operands_.empty() ? "" : " ",
                                operands_.c_str());
    for (const Option &r : rows_) {
        std::string head = r.name;
        if (r.operand)
            head += std::string(" ") + r.operand;
        out += strprintf("  %-22s %s\n", head.c_str(), r.help);
    }
    if (!note_.empty())
        out += note_ + "\n";
    return out;
}

void
OptionTable::fail(const char *argv0, const std::string &why) const
{
    std::fprintf(stderr, "%s: %s\n%s", argv0, why.c_str(),
                 usage(argv0).c_str());
    std::exit(2);
}

} // namespace cyclops::cli
