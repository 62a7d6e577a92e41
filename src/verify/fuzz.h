/**
 * @file
 * The fuzz loop: generate seeded random programs, run each through the
 * differential runner, shrink any failure to a minimal reproducer.
 * Shared by the cyclops-fuzz CLI and the verify tests.
 */

#ifndef CYCLOPS_VERIFY_FUZZ_H
#define CYCLOPS_VERIFY_FUZZ_H

#include <string>

#include "verify/diff_runner.h"
#include "verify/prog_gen.h"

namespace cyclops::verify
{

/** Fuzz campaign parameters. */
struct FuzzOptions
{
    u64 seed = 1;        ///< campaign seed; iteration i derives from it
    u32 iters = 200;     ///< programs to generate and diff
    u32 maxThreads = 4;  ///< thread counts cycle through 1..maxThreads
    bool shrinkOnFail = true;
    bool verbose = false; ///< per-iteration progress on stdout
    Mutation mutation = Mutation::None; ///< harness self-test hook

    /**
     * Observability for the timing-side chips. Output paths should
     * contain "%t" (expands to "i<iteration>") so successive
     * iterations do not overwrite each other. Never affects the diff.
     */
    ObsConfig obs;
};

/** Campaign outcome. */
struct FuzzResult
{
    u32 executed = 0;   ///< iterations actually run
    u32 divergences = 0;
    u32 timeouts = 0;   ///< runaway candidates (not failures)
    u64 instructions = 0;

    // First divergence, if any.
    u64 failingSeed = 0;  ///< derived program seed of the failing iteration
    u32 failingIter = 0;  ///< iteration index within the campaign
    u32 failingThreads = 0;
    std::string report;     ///< diff report of the (shrunk) reproducer
    std::string reproducer; ///< minimal reproducer as .s text
    u32 reproducerLen = 0;  ///< non-nop instructions in the reproducer
};

/** Deterministic per-iteration program seed. */
u64 iterationSeed(u64 campaignSeed, u32 iteration);

/**
 * Run the campaign. Stops at the first divergence (after shrinking it);
 * timeouts and unsupported programs are counted and skipped.
 */
FuzzResult fuzzLoop(const FuzzOptions &opts);

} // namespace cyclops::verify

#endif // CYCLOPS_VERIFY_FUZZ_H
