/**
 * @file
 * cyclops-fuzz: differential fuzzer driver.
 *
 * Generates seeded random programs, executes each on both the
 * ThreadUnit timing frontend and the architectural reference
 * interpreter, and reports the first divergence — shrunk to a minimal
 * reproducer and dumped as reassemblable .s text.
 *
 *   cyclops-fuzz --iters 500                   500-program campaign
 *   cyclops-fuzz --seed 42 --iters 1           reproduce one program
 *   cyclops-fuzz --threads 8 --no-shrink       wider SPMD, raw failure
 *   cyclops-fuzz --mutate add-off-by-one       harness self-test: must
 *                                              report a divergence
 *
 * The trace and stats options (DESIGN.md section 10) apply to the
 * timing-side chips. Put "%t" in output paths — it expands to
 * "i<iteration>" so iterations do not overwrite each other's files.
 *
 * Exit status: 0 on a clean campaign, 1 if any program diverged, 2 on
 * a usage error.
 */

#include <cstdio>
#include <string>

#include "common/cli.h"
#include "common/log.h"
#include "verify/fuzz.h"

using namespace cyclops;

int
main(int argc, char **argv)
{
    verify::FuzzOptions opts;

    cli::OptionTable table("", "output paths may contain %t -> "
                               "\"i<iter>\"");
    table.add(cli::u64Value("--seed", &opts.seed, "campaign seed"));
    table.add(cli::u32Value("--iters", &opts.iters,
                            "programs to diff (default 200)"));
    table.add(cli::u32Value("--threads", &opts.maxThreads,
                            "max threads per program, 1..8 (default 4)"));
    table.add(cli::flag("--no-shrink", &opts.shrinkOnFail,
                        "report the unshrunk failing program", false));
    table.add(cli::flag("--verbose", &opts.verbose,
                        "per-iteration progress on stdout"));
    table.add({"--mutate", "BUG",
               "add-off-by-one|sltu-flipped|lb-zero-extends",
               [&opts](const char *v) {
                   const std::string name = v;
                   if (name == "add-off-by-one")
                       opts.mutation = verify::Mutation::AddOffByOne;
                   else if (name == "sltu-flipped")
                       opts.mutation = verify::Mutation::SltuFlipped;
                   else if (name == "lb-zero-extends")
                       opts.mutation = verify::Mutation::LbZeroExtends;
                   else
                       return strprintf("unknown mutation '%s'", v);
                   return std::string();
               }});
    table.addObs(opts.obs);

    if (const std::string why = table.parse(argc, argv); !why.empty())
        table.fail(argv[0], why);
    if (opts.maxThreads == 0 || opts.maxThreads > 8)
        table.fail(argv[0], "--threads must be 1..8");

    const verify::FuzzResult res = verify::fuzzLoop(opts);

    std::printf("%u programs, %llu instructions diffed, %u timeouts, "
                "%u divergences\n",
                res.executed,
                static_cast<unsigned long long>(res.instructions),
                res.timeouts, res.divergences);

    if (res.divergences == 0)
        return 0;

    std::printf("\nDIVERGENCE (iteration %u, program seed %llu, "
                "%u threads):\n%s\n"
                "minimal reproducer (%u instructions):\n%s\n"
                "reproduce with: cyclops-fuzz --seed %llu --iters %u\n",
                res.failingIter,
                static_cast<unsigned long long>(res.failingSeed),
                res.failingThreads, res.report.c_str(), res.reproducerLen,
                res.reproducer.c_str(),
                static_cast<unsigned long long>(opts.seed),
                res.failingIter + 1);
    return 1;
}
