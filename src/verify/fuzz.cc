#include "verify/fuzz.h"

#include <cstdio>

#include "common/log.h"
#include "common/rng.h"

namespace cyclops::verify
{

u64
iterationSeed(u64 campaignSeed, u32 iteration)
{
    // splitmix64 of (campaign, iteration) — stable across platforms so
    // a reported seed reproduces the exact program anywhere.
    u64 z = campaignSeed + 0x9E3779B97F4A7C15ull * (iteration + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

FuzzResult
fuzzLoop(const FuzzOptions &opts)
{
    FuzzResult res;
    Rng mix(opts.seed);

    for (u32 i = 0; i < opts.iters; ++i) {
        GenOptions gen;
        gen.seed = iterationSeed(opts.seed, i);
        gen.threads = 1 + i % opts.maxThreads;
        gen.bodyOps = 24 + u32(mix.below(49)); // 24..72

        DiffConfig diff;
        diff.mutation = opts.mutation;
        diff.chip.obs = opts.obs;
        diff.chip.obs.tag = strprintf("i%u", i);
        // Vary timing-only knobs: architectural results must not care.
        diff.chip.pibEnabled = mix.chance(0.9);
        diff.chip.burstEnabled = mix.chance(0.75);
        if (mix.chance(0.25))
            diff.chip.maxOutstandingMem = 1 + u32(mix.below(4));

        const GenProgram gp = generate(gen);
        const DiffResult r = runDiff(gp, diff);
        ++res.executed;
        res.instructions += r.instructions;

        if (opts.verbose)
            std::printf("iter %u seed=%llu threads=%u: %s\n", i,
                        static_cast<unsigned long long>(gen.seed),
                        gen.threads,
                        r.ok          ? "ok"
                        : r.timeout   ? "timeout"
                        : r.unsupported ? "unsupported"
                                        : "DIVERGED");

        if (r.timeout || r.unsupported) {
            ++res.timeouts;
            continue;
        }
        if (r.ok)
            continue;

        ++res.divergences;
        res.failingSeed = gen.seed;
        res.failingIter = i;
        res.failingThreads = gen.threads;

        GenProgram minimal = gp;
        if (opts.shrinkOnFail) {
            minimal = shrink(gp, [&](const GenProgram &cand) {
                return runDiff(cand, diff).diverged();
            });
        }
        const DiffResult rerun = runDiff(minimal, diff);
        res.report = rerun.message;
        res.reproducer = minimal.toAsm();
        for (const isa::Instr &in : minimal.text)
            if (in.op != isa::Opcode::Nop)
                ++res.reproducerLen;
        break;
    }
    return res;
}

} // namespace cyclops::verify
