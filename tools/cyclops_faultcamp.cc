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
 * The trace and stats options (DESIGN.md section 10) apply to the
 * *injected* runs (the golden and baseline runs stay quiet). Put "%t"
 * in output paths — it expands to "i<iteration>" so parallel jobs
 * never share a file:
 *
 *   cyclops-faultcamp --iters 16 --stats-json 'camp-%t.json'
 *
 * Exit status: 0 on a completed campaign (whatever the outcome mix),
 * 2 on a usage error.
 */

#include <cstdio>
#include <string>

#include "common/cli.h"
#include "common/log.h"
#include "fault/fault.h"

using namespace cyclops;

int
main(int argc, char **argv)
{
    fault::CampaignOptions opts;
    u32 jobs = 0;
    std::string outPath;

    cli::OptionTable table("", "output paths may contain %t -> "
                               "\"i<iter>\"");
    table.add(cli::u64Value("--seed", &opts.seed, "campaign seed"));
    table.add(cli::u32Value("--iters", &opts.iterations,
                            "injections (default 100)"));
    table.add(cli::u32Value("--threads", &opts.threads,
                            "threads per program, 1..8 (default 4)"));
    table.add(cli::u32Value("--body-ops", &opts.bodyOps,
                            "generated program size (default 48)"));
    table.add({"--kind", "KIND", "only register|memory|cacheLine|link",
               [&opts](const char *v) {
                   if (!fault::parseFaultKind(v, &opts.kind))
                       return strprintf("unknown fault kind '%s'", v);
                   opts.kindSet = true;
                   return std::string();
               }});
    table.add(cli::u64Value("--max-cycles", &opts.maxCycles,
                            "per-run cycle budget (default 200000)"));
    table.add(cli::watchdog(&opts.watchdogCycles));
    table.add(cli::jobs("--jobs", &jobs, "host threads (0 = all)"));
    table.add(cli::text("--out", &outPath, "JSON report (default stdout)",
                        "FILE"));
    table.addObs(opts.obs);

    if (const std::string why = table.parse(argc, argv); !why.empty())
        table.fail(argv[0], why);
    if (opts.threads == 0 || opts.threads > 8)
        table.fail(argv[0], "--threads must be 1..8");
    if (opts.iterations == 0)
        table.fail(argv[0], "--iters must be nonzero");
    if (opts.maxCycles == 0)
        table.fail(argv[0], "--max-cycles must be nonzero");

    const fault::CampaignResult res = fault::runCampaign(opts, jobs);

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
