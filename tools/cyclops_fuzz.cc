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
 * Observability passthrough (DESIGN.md section 10): --stats-json,
 * --stats-csv, --stats-interval, --trace-out, --trace-cats and
 * --trace-capacity apply to the timing-side chips. Put "%t" in output
 * paths — it expands to "i<iteration>" so iterations do not overwrite
 * each other's files.
 *
 * Exit status: 0 on a clean campaign, 1 if any program diverged.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/log.h"
#include "common/parse.h"
#include "common/trace.h"
#include "verify/fuzz.h"

using namespace cyclops;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--seed N] [--iters N] [--threads N] "
                 "[--no-shrink] [--verbose]\n"
                 "       [--mutate add-off-by-one|sltu-flipped|"
                 "lb-zero-extends]\n"
                 "       [--stats-json P] [--stats-csv P] "
                 "[--stats-interval N]\n"
                 "       [--trace-out P] [--trace-cats LIST] "
                 "[--trace-capacity N]\n"
                 "       (paths may contain %%t -> \"i<iter>\")\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    verify::FuzzOptions opts;

    // A numeric option's value must parse whole; anything else is a
    // usage error (exit 2), never a silent 0.
    auto number = [&](int &i, auto *out) {
        const char *text = argv[++i];
        bool ok;
        if constexpr (sizeof(*out) == sizeof(u64))
            ok = parseU64(text, out);
        else
            ok = parseU32(text, out);
        if (!ok) {
            std::fprintf(stderr, "%s: %s needs a nonnegative number, "
                         "got '%s'\n", argv[0], argv[i - 1], text);
            usage(argv[0]);
        }
    };

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            number(i, &opts.seed);
        } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
            number(i, &opts.iters);
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            number(i, &opts.maxThreads);
        } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
            opts.shrinkOnFail = false;
        } else if (std::strcmp(argv[i], "--shrink") == 0) {
            opts.shrinkOnFail = true;
        } else if (std::strcmp(argv[i], "--verbose") == 0) {
            opts.verbose = true;
        } else if (std::strcmp(argv[i], "--stats-json") == 0 &&
                   i + 1 < argc) {
            opts.obs.statsJson = argv[++i];
        } else if (std::strcmp(argv[i], "--stats-csv") == 0 &&
                   i + 1 < argc) {
            opts.obs.statsCsv = argv[++i];
        } else if (std::strcmp(argv[i], "--stats-interval") == 0 &&
                   i + 1 < argc) {
            number(i, &opts.obs.statsInterval);
        } else if (std::strcmp(argv[i], "--trace-out") == 0 &&
                   i + 1 < argc) {
            opts.obs.traceOut = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-cats") == 0 &&
                   i + 1 < argc) {
            opts.obs.traceCats = parseTraceCats(argv[++i]);
        } else if (std::strcmp(argv[i], "--trace-capacity") == 0 &&
                   i + 1 < argc) {
            number(i, &opts.obs.traceCapacity);
        } else if (std::strcmp(argv[i], "--mutate") == 0 && i + 1 < argc) {
            const std::string name = argv[++i];
            if (name == "add-off-by-one")
                opts.mutation = verify::Mutation::AddOffByOne;
            else if (name == "sltu-flipped")
                opts.mutation = verify::Mutation::SltuFlipped;
            else if (name == "lb-zero-extends")
                opts.mutation = verify::Mutation::LbZeroExtends;
            else
                usage(argv[0]);
        } else {
            usage(argv[0]);
        }
    }
    if (opts.maxThreads == 0 || opts.maxThreads > 8)
        fatal("--threads must be 1..8");
    // Tracing to a file without an explicit category list records all.
    if (!opts.obs.traceOut.empty() && opts.obs.traceCats == 0)
        opts.obs.traceCats = kTraceAll;

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
