/**
 * @file
 * Multi-chip workloads on the cycle-driven fabric (DESIGN.md
 * section 16): a nearest-neighbor halo exchange and a distributed
 * STREAM scale kernel, both execution-driven guests on an
 * arch::System of shrunken chips.
 *
 * Both workloads are bit-deterministic: every remote payload is a
 * pure function of (chip, direction, element, iteration), the host
 * verifies the landed bytes after the run, and a fingerprint over the
 * window memory plus the fabric counters lets the determinism tests
 * compare whole runs across repeats and job counts with one u64.
 */

#ifndef CYCLOPS_WORKLOADS_MULTICHIP_H
#define CYCLOPS_WORKLOADS_MULTICHIP_H

#include "arch/system.h"
#include "arch/unit.h"
#include "common/config.h"

namespace cyclops::workloads
{

/** One multi-chip run (halo exchange or distributed STREAM). */
struct MultiChipConfig
{
    u32 dimX = 2, dimY = 2, dimZ = 1;
    bool torus = true;
    u32 threads = 8; ///< guest threads per chip (<= the shrunken 8 TUs)
    u32 words = 64;  ///< 8-byte words per halo face / STREAM elements
    u32 iters = 2;   ///< halo exchange iterations
    ObsConfig obs;

    /** Link degradation applied to the fabric (dead / flaky /
     *  derated links); empty leaves the fabric healthy. */
    net::FabricFaultMap faults;

    /** Degraded-chip map applied to every chip (disabled TUs, failed
     *  banks, ...), composing chip faults with fabric faults. */
    FaultConfig chipFault;

    // Fabric reliability overrides (0 = FabricConfig default), used
    // by the fault campaigns and the retry-storm tests.
    u32 fabricMaxRetries = 0;
    Cycle fabricRetryBackoff = 0;

    /** Run budget for the system (0 = unbounded). */
    u64 maxCycles = 0;

    /**
     * The system the workloads run on: a shrunken chip (8 TUs in two
     * quads, 16 x 64 KB banks, no reserved kernel TUs) so multi-chip
     * sweeps stay fast, with the remote window at the default half of
     * the 1 MB embedded memory.
     */
    arch::SystemConfig systemConfig() const;
};

/** Outcome of one multi-chip run. */
struct MultiChipResult
{
    Cycle cycles = 0;
    u64 instructions = 0;
    bool verified = false;

    /** How the system run ended (FabricFailure on a partition). */
    arch::RunExitReason exitReason = arch::RunExitReason::AllHalted;
    std::string exitDiagnostic;

    // Fabric aggregates (net.Fabric counters after the drain).
    u64 messages = 0;
    u64 bytesMoved = 0;
    u64 queueCycles = 0;
    u64 flitsInjected = 0;
    u64 flitsDelivered = 0;
    u64 flitsInFlight = 0; ///< 0 after a completed run (conservation)
    u64 flitsDropped = 0;  ///< corrupted attempts (flaky links)
    u64 rerouted = 0;      ///< messages that detoured around dead links
    u64 retransmits = 0;   ///< end-to-end retransmissions
    u64 crcErrors = 0;     ///< corruptions the checksum caught
    u64 unroutable = 0;    ///< messages abandoned without a live path

    /**
     * FNV-1a over every chip's window + result memory and the
     * cycle/instruction/fabric counters: two runs are equivalent iff
     * their fingerprints match.
     */
    u64 fingerprint = 0;

    /** Cycle attribution summed over all chips' thread units. */
    arch::CycleBreakdown attr;
};

/**
 * Iterative 6-direction halo exchange: every chip remote-stores a
 * face of @c words payload words to each mesh/torus neighbor, posts a
 * flag word after a chip-wide barrier (per-path FIFO makes the flag
 * arrive after its payload), and spins on its own inbound flags
 * before the next iteration. After the last iteration every thread
 * reads its share of the received faces and stores a checksum.
 */
MultiChipResult runHaloExchange(const MultiChipConfig &cfg);

/**
 * Distributed STREAM scale: chip i remote-loads its b[] slice from
 * the +x neighbor's window, multiplies by a scalar, and stores a[]
 * locally. Chips without a +x neighbor (1-wide or mesh edge) scale
 * their own slice, so the kernel also covers the degenerate shapes.
 */
MultiChipResult runDistributedStream(const MultiChipConfig &cfg);

} // namespace cyclops::workloads

#endif // CYCLOPS_WORKLOADS_MULTICHIP_H
