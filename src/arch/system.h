/**
 * @file
 * A multi-chip Cyclops system: N real Chips on a 3-D mesh/torus,
 * coupled through the cycle-driven net::Fabric (DESIGN.md section 16).
 *
 * The System owns the chips and the fabric and advances everything in
 * conservative epoch lockstep: each chip runs one epoch (default one
 * hop time: routerLatency + linkLatency — the minimum time any
 * message needs to cross a chip boundary), then fabric deliveries
 * whose time has come are applied to the destination chips' memory,
 * in (delivery cycle, injection sequence) order, before the next
 * epoch starts. Chips advance in chip-id order within an epoch, so
 * the injection sequence — and with it every fabric timing — is a
 * pure function of the program, independent of host parallelism.
 *
 * Remote accesses use the address window of arch/interest_group.h: a
 * non-Scratch EA with physical bit 23 set names (chip, offset), and
 * the offset maps into the target's 128 KB window at windowBase. A
 * remote store is posted: the thread resumes when the injection port
 * drains (backpressure — the paper's 12 GB/s I/O budget binds), and
 * the value lands at the first epoch boundary after its delivery
 * cycle. A remote load charges the full request/response round trip
 * but reads the target window at issue time (the conservative-epoch
 * snapshot). Messages sharing a source and destination follow the
 * same DOR path FIFO, so a flag stored after its payload is never
 * applied before it — the ordering workloads synchronize with.
 *
 * Fault tolerance (DESIGN.md section 18): when the fabric's fault map
 * abandons a remote access (retries exhausted against a partitioned
 * or storming destination) the System latches the first failure and
 * run() returns RunExit::FabricFailure at the next epoch boundary —
 * a structured exit, never a hang or a host fatal(). A corruption
 * that escapes the end-to-end checksum is materialized here as
 * silent data corruption: one deterministic bit of the posted store
 * flips. Watchdog exits are attributed: if retransmissions climbed
 * within the trailing watchdog window the diagnostic leads with a
 * fabric-livelock (retry storm) note instead of reading as a
 * chip-level deadlock.
 */

#ifndef CYCLOPS_ARCH_SYSTEM_H
#define CYCLOPS_ARCH_SYSTEM_H

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "arch/chip.h"
#include "common/cycle_queue.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "net/fabric.h"

namespace cyclops::arch
{

/** Configuration of a multi-chip system. */
struct SystemConfig
{
    ChipConfig chip;           ///< every chip is identical (cellular)
    net::FabricConfig fabric;  ///< interconnect + protocol parameters

    /**
     * Physical base of the 128 KB window each chip exports to its
     * peers; 0 resolves to half the embedded memory.
     */
    PhysAddr windowBase = 0;

    u32 numChips() const { return fabric.net.numChips(); }

    /** Resolved window base (explicit or the memBytes()/2 default). */
    PhysAddr
    windowBaseOf() const
    {
        return windowBase ? windowBase : chip.memBytes() / 2;
    }

    /** First violated invariant as a message, or "" if well-formed. */
    std::string check() const;

    /** check(), escalated: fatal() on a malformed configuration. */
    void validate() const;
};

/** N Cyclops chips on the cycle-driven fabric. */
class System : private RemotePort
{
  public:
    explicit System(const SystemConfig &cfg);

    const SystemConfig &config() const { return cfg_; }
    u32 numChips() const { return u32(chips_.size()); }
    Chip &chip(u32 id) { return *chips_[id]; }
    const Chip &chip(u32 id) const { return *chips_[id]; }
    net::Fabric &fabric() { return fabric_; }
    const net::Fabric &fabric() const { return fabric_; }
    PhysAddr windowBase() const { return windowBase_; }

    /** Lockstep frontier: every chip has simulated at least this far. */
    Cycle now() const { return now_; }

    /** Load the same program image into every chip (SPMD). */
    void loadProgramAll(const isa::Program &program);

    /** Sum of liveUnits() over the chips. */
    u32 liveUnits() const;

    /**
     * Advance the system until every chip halts or @p maxCycles
     * elapse (relative, like Chip::run). A Watchdog or Signal exit
     * from any chip stops the whole system and is returned as-is
     * (the watchdog diagnostic is prefixed with the chip id). On
     * AllHalted all remaining fabric deliveries are applied and the
     * fabric is drained, so flitsInFlight() == 0 afterwards.
     */
    RunExit run(Cycle maxCycles = kCycleNever);

    /** Fabric stores accepted but not yet applied to their target. */
    size_t pendingStores() const { return pending_.size(); }

    /** Sum of totalInstructions() over the chips. */
    u64 totalInstructions() const;

    /**
     * Write the configured observability outputs. Stats/CSV/profile
     * files are written per chip (paths get a ".chipN" suffix unless
     * they contain "%t", which expands to "<tag>-chipN"); the trace is
     * one merged Chrome JSON with each chip as its own process (pid
     * 10+N, "cyclops-chipN") so Perfetto shows the chips side by side,
     * plus — when the "net" category is traced — the fabric as pid 3
     * ("cyclops-fabric") with one track per directed link. The fabric
     * stats JSON (obs.fabricStats, schema cyclops-fabric-v1) and the
     * link/pair congestion heatmap CSV (obs.fabricHeatmap) are
     * system-level files written here too (see DESIGN.md section 17).
     */
    void writeObservability();

  private:
    // RemotePort (installed on every chip).
    MemTiming remoteAccess(u32 srcChip, ThreadId tid, Cycle now,
                           const MemRef &ref, MemKind kind,
                           u64 value) override;

    /** Latch an access the fabric gave up on; its (stalled) timing. */
    [[gnu::cold, gnu::noinline]] MemTiming
    abandoned(const char *what, u32 srcChip, ThreadId tid, u32 peer,
              const MemRef &ref, const net::Delivery &d);

    /** Apply pending stores delivered at or before @p upTo. */
    void applyDeliveries(Cycle upTo);

    /** Latch the first abandoned remote access (run() returns
     *  FabricFailure at the next epoch boundary). */
    void noteFabricFailure(std::string diag);

    /** Record the epoch's retransmit count for watchdog attribution
     *  and prune samples outside the trailing window. */
    void
    noteEpochRetransmits()
    {
        // No new retransmission and no sample leaving the window: the
        // history stays as it is (always, with the watchdog off).
        if (fabric_.retransmits() == retransLast_ &&
            now_ < retransPruneAt_)
            return;
        sampleRetransmits();
    }
    void sampleRetransmits();

    /** The RunExit of chip @p id stopping the system with @p reason
     *  (Watchdog or Signal); a watchdog names the chip and any retry
     *  storm. */
    [[gnu::cold]] RunExit chipExit(u32 id, RunExitReason reason) const;

    /** Retransmissions within the trailing watchdog window. */
    u64 recentRetransmits() const;

    /** Write the fabric stats JSON (obs.fabricStats). */
    void writeFabricStats();

    /** Write the link/pair congestion heatmap CSV (obs.fabricHeatmap). */
    void writeFabricHeatmap();

    /** A store accepted by the fabric, awaiting its delivery cycle. */
    struct PendingStore
    {
        Cycle delivered = 0;
        u64 seq = 0;         ///< injection sequence: total order tie-breaker
        u8 *host = nullptr;  ///< the bytes in the target chip's window
        u64 value = 0;
        u8 bytes = 0;
    };

    SystemConfig cfg_;
    ObsConfig obsOrig_; ///< pre-rewrite observability (merged trace)
    net::Fabric fabric_;
    EpochSampler fabricSampler_; ///< epoch series over fabric_.stats()
    Tracer fabricTracer_;        ///< "net" category: per-link tracks
    std::vector<std::unique_ptr<Chip>> chips_;
    PhysAddr windowBase_ = 0;
    Cycle now_ = 0;
    u64 seq_ = 0;
    // Posted stores in (delivered, seq) order. 512 one-cycle buckets
    // hold nearly every store of a loaded fabric; later deliveries
    // (deep link backlogs, retransmissions) fall back to a heap.
    CycleBucketQueue<PendingStore, 512> pending_;

    // First abandoned remote access: run() turns this into a
    // structured RunExit::FabricFailure at the next epoch boundary.
    bool fabricFailed_ = false;
    std::string failDiag_;

    // (cycle, fabric.retransmits) samples, pushed on change at epoch
    // boundaries and pruned to twice the watchdog window: lets a
    // Watchdog exit distinguish fabric-level livelock (retry storm)
    // from chip-level deadlock.
    std::deque<std::pair<Cycle, u64>> retransHist_;
    u64 retransLast_ = 0;             ///< fabric.retransmits at the last sample
    Cycle retransPruneAt_ = kCycleNever; ///< when retransHist_[1] leaves
};

} // namespace cyclops::arch

#endif // CYCLOPS_ARCH_SYSTEM_H
