/**
 * @file
 * Seeded transient-fault injection campaigns.
 *
 * Each campaign iteration generates a random (but deterministic, seed-
 * derived) SPMD program from the verify generator, computes its golden
 * final state on the architectural reference interpreter, then runs it
 * on the timing chip with exactly one transient fault injected mid-run:
 * a register bit flip, a memory byte bit flip, or a cache-line
 * invalidation. The outcome is classified by comparing the injected
 * run's *final* architectural state (memory image + console output)
 * against the golden model:
 *
 *   Masked   — run completed, final state identical to golden
 *   Detected — a precise guest exception was raised (GuestError/Check)
 *   Sdc      — run completed but the final state silently differs
 *   Crash    — wild execution (GuestError/Crash: out-of-range access,
 *              pc left the text section, ...)
 *   Hang     — the deadlock watchdog fired or the cycle budget ran out
 *
 * Final-state (not lockstep) comparison is deliberate: a fault may
 * perturb timing and instruction counts without corrupting the result,
 * and such runs are architecturally masked.
 *
 * Iterations are fully independent (one fresh Chip each), so campaigns
 * run on a SimPool and the report is byte-identical for any job count.
 *
 * A fourth kind, selected explicitly with CampaignOptions::kind =
 * FaultKind::Link, targets the multi-chip fabric instead of a chip:
 * each iteration runs the host-verified halo-exchange workload on a
 * 2x2x1 torus and degrades one directed link mid-run (dead, flaky,
 * flaky with checksum escapes, or always-corrupt). Masked means the
 * fault-tolerant fabric absorbed the fault (rerouting / retransmits),
 * Detected is a structured RunExit::FabricFailure, Sdc is a checksum
 * escape that corrupted the verified payload, and Hang covers retry
 * storms the watchdog had to break.
 */

#ifndef CYCLOPS_FAULT_FAULT_H
#define CYCLOPS_FAULT_FAULT_H

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace cyclops::fault
{

/** What a single injection perturbs. */
enum class FaultKind : u8
{
    Register,  ///< one bit of one architectural register of one TU
    Memory,    ///< one bit of one byte of the data/heap region
    CacheLine, ///< invalidate one D-cache line (timing-only)
    Link,      ///< degrade one fabric link of a multi-chip system
};

/** Display name of @p kind ("register", "memory", "cacheLine",
 *  "link"). */
const char *faultKindName(FaultKind kind);

/** Parse a fault kind display name; false on an unknown name. */
bool parseFaultKind(const char *name, FaultKind *out);

/** Classification of one injected run (see file comment). */
enum class Outcome : u8 { Masked, Detected, Sdc, Crash, Hang };

inline constexpr unsigned kNumOutcomes = 5;

/** Display name of @p outcome ("masked", "detected", ...). */
const char *outcomeName(Outcome outcome);

/** The fault one iteration injects (all fields seed-derived). */
struct FaultSpec
{
    FaultKind kind = FaultKind::Register;
    Cycle cycle = 0; ///< chip cycle the fault strikes at
    u32 thread = 0;  ///< Register: victim TU
    u32 reg = 0;     ///< Register: victim register (1..63)
    u32 addr = 0;    ///< Memory: victim byte address
    u32 bit = 0;     ///< Register/Memory: bit flipped
    u32 cache = 0;   ///< CacheLine: victim D-cache
    u32 line = 0;    ///< CacheLine: victim line index
    u32 linkSrc = 0; ///< Link: source chip of the victim link
    u32 linkDst = 0; ///< Link: destination chip of the victim link
    u32 ppm = 0;     ///< Link: corruption probability (0 = dead link)
    u32 escapePpm = 0; ///< Link: checksum-escape probability
};

/** Campaign parameters. */
struct CampaignOptions
{
    u64 seed = 1;      ///< campaign seed; iteration i derives from it
    u32 iterations = 100;
    u32 threads = 4;   ///< SPMD threads per generated program (1..8)
    u32 bodyOps = 48;  ///< program size knob (verify::GenOptions)
    u64 maxCycles = 200'000;      ///< per-run cycle budget (-> Hang)
    u64 watchdogCycles = 50'000;  ///< chip watchdog for injected runs

    /**
     * Restrict the campaign to one fault kind. The chip kinds
     * (register / memory / cacheLine) are drawn uniformly per
     * iteration when unset. FaultKind::Link switches the workload
     * from a generated single-chip program to a halo exchange on a
     * 2x2x1 torus and injects one seed-derived fabric link fault
     * (dead / flaky / flaky-with-escapes / always-corrupt) mid-run;
     * the fault-tolerant fabric (DESIGN.md section 18) is what is
     * under test, so "masked" means rerouting or retransmission
     * absorbed the fault and "detected" means a structured
     * RunExit::FabricFailure.
     */
    bool kindSet = false;
    FaultKind kind = FaultKind::Register;

    /**
     * Observability for the *injected* runs only (the golden and
     * fault-free baseline runs stay quiet). Output paths should
     * contain "%t": it expands to "i<iteration>" so parallel campaign
     * jobs never collide on a file. Never changes outcomes.
     */
    ObsConfig obs;
};

/** One iteration's result. */
struct InjectionResult
{
    u64 seed = 0;   ///< derived program seed of this iteration
    FaultSpec spec;
    Outcome outcome = Outcome::Masked;
    u64 cycles = 0; ///< chip time when the injected run ended
    std::string detail; ///< guest-exception text for Detected/Crash
};

/** Whole-campaign result. */
struct CampaignResult
{
    CampaignOptions opts;
    std::vector<InjectionResult> injections; ///< in iteration order
    std::array<u64, kNumOutcomes> counts{};  ///< indexed by Outcome
};

/** Run iteration @p iter of a campaign (self-contained, thread-safe). */
InjectionResult runInjection(const CampaignOptions &opts, u32 iter);

/** Run the whole campaign on @p jobs host threads (0 = all cores). */
CampaignResult runCampaign(const CampaignOptions &opts, u32 jobs);

/**
 * Write the campaign report as deterministic JSON (schema
 * "cyclops-faultcamp-v1", no timestamps; byte-identical across runs
 * and job counts — `tools/cyclops_check.py faultcamp` validates it).
 */
void writeCampaignJson(const CampaignResult &result, std::FILE *out);

} // namespace cyclops::fault

#endif // CYCLOPS_FAULT_FAULT_H
