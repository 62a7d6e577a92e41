/**
 * @file
 * cyclops-faultcamp: seeded transient-fault injection campaign driver.
 *
 * Runs N independent iterations, each generating a random program,
 * computing its golden final state on the reference interpreter, and
 * executing it on the timing chip with one seed-derived transient
 * fault (register bit flip, memory bit flip, or cache-line kill)
 * injected mid-run. Outcomes are classified masked / detected / sdc /
 * crash / hang; the JSON report is deterministic (byte-identical for a
 * given seed at any --jobs).
 *
 *   cyclops-faultcamp --iters 1000 --out camp.json
 *   cyclops-faultcamp --seed 7 --iters 100 --jobs 1     serial rerun
 *
 * --kind restricts the campaign to one fault kind; "--kind link"
 * switches the workload to a multi-chip halo exchange on a 2x2x1
 * torus and injects one fabric link fault per iteration (dead /
 * flaky / flaky-with-escapes / always-corrupt), exercising the
 * fault-tolerant fabric of DESIGN.md section 18: masked means the
 * rerouting or the end-to-end retry absorbed the fault, detected is
 * a structured fabric-failure exit, sdc is a checksum escape.
 *
 * Observability passthrough (DESIGN.md section 10): --stats-json,
 * --stats-csv, --stats-interval, --trace-out, --trace-cats and
 * --trace-capacity apply to the *injected* runs (the golden and
 * baseline runs stay quiet). Put "%t" in output paths — it expands to
 * "i<iteration>" so parallel jobs never share a file:
 *
 *   cyclops-faultcamp --iters 16 --stats-json 'camp-%t.json'
 *
 * Exit status: 0 on a completed campaign (whatever the outcome mix),
 * 2 on a usage error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/log.h"
#include "common/parse.h"
#include "common/trace.h"
#include "fault/fault.h"

using namespace cyclops;

namespace
{

int
usage(const char *argv0, const char *why)
{
    if (why)
        std::fprintf(stderr, "%s: %s\n", argv0, why);
    std::fprintf(stderr,
                 "usage: %s [--seed N] [--iters N] [--threads N] "
                 "[--body-ops N]\n"
                 "       [--kind register|memory|cacheLine|link]\n"
                 "       [--max-cycles N] [--watchdog N] [--jobs N] "
                 "[--out FILE]\n"
                 "       [--stats-json P] [--stats-csv P] "
                 "[--stats-interval N]\n"
                 "       [--trace-out P] [--trace-cats LIST] "
                 "[--trace-capacity N]\n"
                 "       (paths may contain %%t -> \"i<iter>\")\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    fault::CampaignOptions opts;
    u64 jobs = 0;
    std::string outPath;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto numArg = [&](u64 *out) {
            if (i + 1 >= argc || !parseU64(argv[++i], out)) {
                std::exit(usage(argv[0],
                                strprintf("%s needs a number", arg)
                                    .c_str()));
            }
        };
        u64 v = 0;
        if (std::strcmp(arg, "--seed") == 0) {
            numArg(&opts.seed);
        } else if (std::strcmp(arg, "--iters") == 0) {
            numArg(&v);
            opts.iterations = u32(v);
        } else if (std::strcmp(arg, "--threads") == 0) {
            numArg(&v);
            opts.threads = u32(v);
        } else if (std::strcmp(arg, "--body-ops") == 0) {
            numArg(&v);
            opts.bodyOps = u32(v);
        } else if (std::strcmp(arg, "--kind") == 0 && i + 1 < argc) {
            if (!fault::parseFaultKind(argv[++i], &opts.kind))
                return usage(argv[0],
                             strprintf("--kind: unknown fault kind '%s'",
                                       argv[i]).c_str());
            opts.kindSet = true;
        } else if (std::strcmp(arg, "--max-cycles") == 0) {
            numArg(&opts.maxCycles);
        } else if (std::strcmp(arg, "--watchdog") == 0) {
            numArg(&opts.watchdogCycles);
        } else if (std::strcmp(arg, "--jobs") == 0) {
            numArg(&jobs);
        } else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else if (std::strcmp(arg, "--stats-json") == 0 &&
                   i + 1 < argc) {
            opts.obs.statsJson = argv[++i];
        } else if (std::strcmp(arg, "--stats-csv") == 0 &&
                   i + 1 < argc) {
            opts.obs.statsCsv = argv[++i];
        } else if (std::strcmp(arg, "--stats-interval") == 0) {
            numArg(&v);
            opts.obs.statsInterval = u32(v);
        } else if (std::strcmp(arg, "--trace-out") == 0 &&
                   i + 1 < argc) {
            opts.obs.traceOut = argv[++i];
        } else if (std::strcmp(arg, "--trace-cats") == 0 &&
                   i + 1 < argc) {
            opts.obs.traceCats = parseTraceCats(argv[++i]);
        } else if (std::strcmp(arg, "--trace-capacity") == 0) {
            numArg(&v);
            opts.obs.traceCapacity = u32(v);
        } else {
            return usage(argv[0],
                         strprintf("unknown argument '%s'", arg).c_str());
        }
    }
    if (opts.threads == 0 || opts.threads > 8)
        return usage(argv[0], "--threads must be 1..8");
    if (opts.iterations == 0)
        return usage(argv[0], "--iters must be nonzero");
    if (opts.maxCycles == 0)
        return usage(argv[0], "--max-cycles must be nonzero");
    // Tracing to a file without an explicit category list records all.
    if (!opts.obs.traceOut.empty() && opts.obs.traceCats == 0)
        opts.obs.traceCats = kTraceAll;

    // Saturate rather than truncate: SimPool::resolveJobs clamps any
    // count past the hardware thread count.
    const fault::CampaignResult res = fault::runCampaign(
        opts, u32(std::min<u64>(jobs, std::numeric_limits<u32>::max())));

    std::printf("%u injections:", opts.iterations);
    for (unsigned c = 0; c < fault::kNumOutcomes; ++c)
        std::printf(" %s=%llu", fault::outcomeName(fault::Outcome(c)),
                    static_cast<unsigned long long>(res.counts[c]));
    std::printf("\n");

    if (!outPath.empty()) {
        std::FILE *out = openOutput(outPath, "campaign output");
        fault::writeCampaignJson(res, out);
        closeOutput(out, outPath);
    } else {
        fault::writeCampaignJson(res, stdout);
    }
    return 0;
}
