/**
 * @file
 * Chip configuration: the parametrized architecture of the evaluated
 * Cyclops design point.
 *
 * Defaults reproduce Table 2 of the paper exactly:
 *
 *   Instruction type                        Execution   Latency
 *   Branches                                    2           0
 *   Integer multiplication                      1           5
 *   Integer divide                             33           0
 *   FP add, mult. and conversions               1           5
 *   FP divide (double)                         30           0
 *   FP square root (double)                    56           0
 *   FP multiply-and-add                         1           9
 *   Memory op (local cache hit)                 1           6
 *   Memory op (local cache miss)                1          24
 *   Memory op (remote cache hit)                1          17
 *   Memory op (remote cache miss)               1          36
 *   All other operations                        1           0
 *
 *   Threads   128   single issue, in-order, 500 MHz
 *   FPUs       32   1 add, 1 multiply, 1 divide/square root
 *   D-cache    32   16 KB, up to 8-way assoc., 64-byte lines
 *   I-cache    16   32 KB, 8-way assoc., 32-byte lines
 *   Memory     16   512 KB
 */

#ifndef CYCLOPS_COMMON_CONFIG_H
#define CYCLOPS_COMMON_CONFIG_H

#include <string>
#include <vector>

#include "common/types.h"

namespace cyclops
{

/**
 * Instruction and memory-path latencies, in cycles.
 *
 * "exec" is how long the issuing unit is busy; "lat" is the additional
 * delay until the result becomes available to dependent instructions.
 * Memory-path component latencies are chosen so that the *uncontended*
 * end-to-end latencies equal Table 2 (asserted by unit tests); queueing
 * at cache ports and memory banks adds on top under contention.
 */
struct LatencyConfig
{
    // Table 2, upper section.
    u32 branchExec = 2;
    u32 intMulExec = 1, intMulLat = 5;
    u32 intDivExec = 33;
    u32 fpAddExec = 1, fpAddLat = 5; ///< add, multiply, conversions
    u32 fpDivExec = 30;
    u32 fpSqrtExec = 56;
    u32 fmaExec = 1, fmaLat = 9;
    u32 memLocalHit = 6;
    u32 memLocalMiss = 24;
    u32 memRemoteHit = 17;
    u32 memRemoteMiss = 36;

    // Memory-path decomposition (see DESIGN.md section 5).
    u32 remoteReqHop = 5;   ///< TU -> remote cache through the cache switch
    u32 remoteRespHop = 6;  ///< remote cache -> TU response hop
    u32 remoteMissExtra = 1; ///< extra tag re-check on the remote miss path
    u32 missToBank = 6;     ///< cache -> memory switch -> bank request
    u32 bankToCache = 6;    ///< bank -> memory switch -> cache response

    // Memory bank service (peak 64 bytes every 12 cycles per bank).
    u32 bankBlockCycles = 6;      ///< 32-byte block service time
    u32 bankBurstBlockCycles = 5; ///< consecutive block, back-to-back
    u32 offChipBlockCycles = 512; ///< 1 KB block on the off-chip channel

    // Instruction path.
    u32 icacheHitRefill = 4; ///< PIB refill from an I-cache hit
    u32 sprLat = 2;          ///< mfspr result latency (wired-OR traversal)
    u32 atomicExtra = 2;     ///< read-modify-write adds to the load path
};

/**
 * Observability configuration: cycle-attribution export, event tracing
 * and epoch-sampled metrics. All default-off; none of the options may
 * change simulated timing (asserted by determinism tests).
 *
 * Output paths may contain "%t", replaced by @ref tag at write time so
 * sweep points running concurrently never share a file.
 */
struct ObsConfig
{
    u32 statsInterval = 0;     ///< epoch sample period in cycles (0 = off)
    u8 traceCats = 0;          ///< TraceCat bitmask (see common/trace.h)
    u32 traceCapacity = 65536; ///< ring-buffer capacity in events
    u32 profInterval = 0;      ///< PC-sample period in cycles (0 = off)
    std::string traceOut;      ///< Chrome-trace JSON path ("" = off)
    std::string statsJson;     ///< end-of-run stats JSON path ("" = off)
    std::string statsCsv;      ///< epoch-series CSV path ("" = off)
    std::string profOut;       ///< profile JSON path ("" = off); also
                               ///< writes <path>.folded and
                               ///< <path>.heatmap.csv
    std::string fabricStats;   ///< fabric stats JSON path ("" = off);
                               ///< multi-chip runs only (see DESIGN.md
                               ///< section 17)
    std::string fabricHeatmap; ///< link/pair congestion CSV ("" = off)
    std::string tag;           ///< substituted for "%t" in output paths

    bool
    anyOutput() const
    {
        return !traceOut.empty() || !statsJson.empty() ||
               !statsCsv.empty() || !profOut.empty() ||
               !fabricStats.empty() || !fabricHeatmap.empty();
    }

    /** @p path with every "%t" replaced by the tag. */
    std::string expandPath(const std::string &path) const;
};

/**
 * Fault model of one chip (paper section 5: the cellular argument is
 * that the system keeps running when individual cells are defective).
 *
 * The disabled-component lists describe a *degraded* chip, applied at
 * construction: dead cells are fused off before boot, and the kernel
 * enumerates what remains. Disabling a quad takes its four TUs, its
 * D-cache and its FPU; disabling an FPU only removes its quad's TUs
 * from kernel scheduling (the cache keeps serving interest groups);
 * disabling a D-cache leaves its TUs running with remapped locality;
 * disabling an I-cache starves its two quads of instruction supply, so
 * their TUs become unusable.
 *
 * watchdogCycles arms the chip-wide deadlock watchdog: if no TU makes
 * forward progress (see DESIGN.md section 13) for that many cycles,
 * Chip::run returns RunExit::Watchdog with a per-TU state dump.
 */
struct FaultConfig
{
    std::vector<u32> disabledTus;     ///< dead thread units
    std::vector<u32> disabledQuads;   ///< dead quads (TUs + cache + FPU)
    std::vector<u32> disabledFpus;    ///< dead FPUs (quad index)
    std::vector<u32> disabledDcaches; ///< dead data caches (quad index)
    std::vector<u32> disabledIcaches; ///< dead instruction caches
    std::vector<u32> disabledBanks;   ///< dead memory banks (MEMSZ remap)
    u32 cacheWays = 0;     ///< live data-cache ways per set (0 = all)
    u64 watchdogCycles = 4'000'000; ///< progress-free cycles before
                                    ///< the watchdog fires (0 = off)

    /** True if any component is disabled or ways are reduced. */
    bool
    anyDegraded() const
    {
        return !disabledTus.empty() || !disabledQuads.empty() ||
               !disabledFpus.empty() || !disabledDcaches.empty() ||
               !disabledIcaches.empty() || !disabledBanks.empty() ||
               cacheWays != 0;
    }
};

/**
 * Structural configuration of one Cyclops chip.
 *
 * The architecture does not fix the number of components at each level
 * of the hierarchy; these defaults are the design point evaluated in the
 * paper. All counts must be powers of two.
 */
struct ChipConfig
{
    // --- Processing units --------------------------------------------
    u32 numThreads = 128;     ///< thread units on the chip
    u32 threadsPerQuad = 4;   ///< TUs sharing one FPU + one D-cache
    u32 quadsPerICache = 2;   ///< quads sharing one I-cache
    u32 reservedThreads = 2;  ///< TUs reserved for the resident kernel

    // --- Data caches --------------------------------------------------
    u32 dcacheBytes = 16 * 1024;
    u32 dcacheLineBytes = 64;
    u32 dcacheAssoc = 8;      ///< "variable associativity, up to 8-way"
    u32 dcacheScratchWays = 0; ///< 2 KB ways used as addressable memory
    u32 dcacheMshrs = 16;     ///< outstanding distinct line fills

    // --- Instruction caches -------------------------------------------
    u32 icacheBytes = 32 * 1024;
    u32 icacheLineBytes = 32; ///< Table 2 (the prose says 64; Table 2 rules)
    u32 icacheAssoc = 8;
    u32 pibEntries = 16;      ///< per-thread Prefetch Instruction Buffer

    // --- Memory ---------------------------------------------------------
    u32 numBanks = 16;
    u32 bankBytes = 512 * 1024;
    u32 memBlockBytes = 32;   ///< bank access unit
    u32 physAddrBits = 24;    ///< max addressable embedded memory: 16 MB
    u64 offChipBytes = 128ULL * 1024 * 1024; ///< optional, 128 MB - 2 GB

    // --- Per-thread microarchitecture ---------------------------------
    u32 maxOutstandingMem = 4; ///< in-flight memory ops per thread
    u32 numRegs = 64;          ///< 32-bit registers, pairable for doubles
    bool pibEnabled = true;
    bool storeAllocNoFetch = true; ///< allocate-without-fetch store misses
    bool burstEnabled = true;      ///< bank burst-transfer discount

    // --- Clock ----------------------------------------------------------
    u64 clockHz = 500'000'000; ///< 500 MHz

    LatencyConfig lat;
    ObsConfig obs;
    FaultConfig fault;

    // Derived quantities ------------------------------------------------
    u32 numQuads() const { return numThreads / threadsPerQuad; }
    u32 numCaches() const { return numQuads(); }
    u32 numICaches() const { return numQuads() / quadsPerICache; }
    u32 numFpus() const { return numQuads(); }
    u32 memBytes() const { return numBanks * bankBytes; }
    u32 usableThreads() const { return numThreads - reservedThreads; }
    u32 dcacheLines() const { return dcacheBytes / dcacheLineBytes; }
    u32 dcacheSets() const { return dcacheLines() / dcacheAssoc; }

    /** Peak embedded-memory bandwidth in bytes/second. */
    double
    peakMemBandwidth() const
    {
        return static_cast<double>(numBanks) * 2 * memBlockBytes /
               (2.0 * lat.bankBlockCycles) * static_cast<double>(clockHz);
    }

    /** Peak aggregate cache-port bandwidth in bytes/second (8 B/cycle). */
    double
    peakCacheBandwidth() const
    {
        return static_cast<double>(numCaches()) * 8.0 *
               static_cast<double>(clockHz);
    }

    /**
     * Check invariants; returns the first violation as a message, or ""
     * for a well-formed configuration. Library code never terminates
     * the host on user input: CLI frontends print the message with
     * usage text and exit nonzero.
     */
    std::string check() const;

    /** check(), escalated: calls fatal() on a malformed configuration. */
    void validate() const;

    /**
     * Canonical "key=value;" description of every field that affects
     * simulated results: structure, latencies, microarchitecture
     * knobs and fault map. Observability options are excluded — they
     * change host behavior only. Basis of hash().
     */
    std::string describe() const;

    /** FNV-1a 64-bit hash of describe(); the manifest config hash. */
    u64 hash() const;
};

} // namespace cyclops

#endif // CYCLOPS_COMMON_CONFIG_H
