/**
 * @file
 * The versioned per-run manifest (RunManifest): one small JSON per run
 * with config hash, seed, git describe, host info and headline
 * counters, so one run's outputs can be identified later without
 * scraping logs. Also the two host clocks the manifest and the
 * frontends' wall-clock figures read.
 *
 * The simulator's own speed is measured by perfbench/ (DESIGN.md
 * section 15), not here.
 */

#ifndef CYCLOPS_COMMON_MANIFEST_H
#define CYCLOPS_COMMON_MANIFEST_H

#include <string>

#include "common/types.h"

namespace cyclops
{

struct ChipConfig;

/** Monotonic host clock, nanoseconds (vDSO-backed; ~20 ns per read). */
u64 hostNowNs();

/** Peak resident set size of this process in KiB (0 if unknown). */
u64 hostPeakRssKb();

/**
 * One run's identity and headline numbers, serialized by
 * writeRunManifest as "cyclops-manifest-v1" JSON. Every field that
 * affects simulated results is captured by config->hash(); host facts
 * ride along as explicit fields because they affect wall-clock, not
 * results.
 */
struct RunManifest
{
    std::string tool;     ///< producing binary ("cyclops-run", bench name)
    std::string workload; ///< program path or bench description
    u64 seed = 0;
    const ChipConfig *config = nullptr; ///< may be null (config-less tools)
    u64 simCycles = 0;
    u64 instructions = 0;
    double wallSeconds = 0.0;
    std::string exitReason; ///< "" when not applicable
};

/** Write @p m as JSON to @p path; fatal() on I/O error. */
void writeRunManifest(const std::string &path, const RunManifest &m);

/** Compile-time git describe string baked in by the build. */
const char *gitDescribe();

} // namespace cyclops

#endif // CYCLOPS_COMMON_MANIFEST_H
