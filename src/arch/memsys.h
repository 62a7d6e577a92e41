/**
 * @file
 * The chip memory fabric: interest-group routing, the cache switch, 32
 * data caches, the memory switch and 16 embedded-DRAM banks.
 *
 * This is the timing backbone shared by both execution frontends. A
 * thread unit calls access() and receives the cycle at which the data
 * is available; all queueing (cache ports, banks) is accounted inside.
 *
 * Fault tolerance (paper section 5): failBank() removes a bank and
 * re-interleaves the remaining, contiguous address space (the hardware
 * MEMSZ remap); disableCache() removes a quad's cache from interest-
 * group scrambling.
 */

#ifndef CYCLOPS_ARCH_MEMSYS_H
#define CYCLOPS_ARCH_MEMSYS_H

#include <array>
#include <utility>
#include <vector>

#include "arch/dcache.h"
#include "arch/interest_group.h"
#include "arch/membank.h"
#include "common/config.h"
#include "common/stats.h"
#include "common/trace.h"

namespace cyclops::arch
{

/** What a memory operation does, for routing and statistics. */
enum class MemKind : u8 { Load, Store, Atomic, Prefetch };

/** Timing outcome of one data-memory operation. */
struct MemTiming
{
    Cycle ready = 0;    ///< cycle the result is available to the thread
    CacheId cache = 0;  ///< cache that serviced the request
    bool remote = false;
    bool hit = false;
    u64 queueWait = 0;  ///< contention share of the latency (queueing)
    bool fabric = false; ///< crossed the inter-chip fabric (RemoteWait)
};

/** The data-memory fabric of one chip. */
class MemSystem
{
  public:
    MemSystem() = default;

    /**
     * Build caches and banks from the configuration. @p tracer (may be
     * null) receives mem/cache events for every access.
     */
    void init(const ChipConfig &cfg, StatGroup *stats,
              Tracer *tracer = nullptr);

    /**
     * One data access from thread @p tid at cycle @p now.
     *
     * @param ea  32-bit effective address (interest group in bits 31:24)
     * @param bytes access size, naturally aligned (1, 2, 4 or 8)
     *
     * Throws GuestError on misaligned or out-of-range guest addresses
     * (guestCheck/guestCrash — the host process survives).
     */
    MemTiming access(Cycle now, ThreadId tid, Addr ea, u8 bytes,
                     MemKind kind);

    /** dcbf: flush the addressed line from its interest-group cache. */
    Cycle flush(Cycle now, ThreadId tid, Addr ea);

    /** dcbi: invalidate the addressed line. */
    Cycle invalidate(Cycle now, ThreadId tid, Addr ea);

    // --- Bank services used by the caches and the I-path ---------------

    /**
     * Fetch @p blocks 32-byte blocks starting at @p lineAddr on behalf
     * of requester quad @p requester (feeds the bank heatmap).
     */
    BankGrant fetchLine(Cycle req, PhysAddr lineAddr, u32 blocks,
                        CacheId requester);

    /** Posted write of @p blocks blocks (evictions); timing only. */
    void postWrite(Cycle when, PhysAddr lineAddr, u32 blocks,
                   CacheId requester);

    // --- Topology -------------------------------------------------------

    /** The local data cache of a hardware thread. */
    CacheId localCacheOf(ThreadId tid) const { return tid >> quadShift_; }

    DCache &dcache(CacheId id) { return caches_[id]; }
    const DCache &dcache(CacheId id) const { return caches_[id]; }
    MemBank &bank(BankId id) { return banks_[id]; }
    const MemBank &bank(BankId id) const { return banks_[id]; }

    /** Resolve the target cache of an effective address for @p tid. */
    CacheId routeCache(Addr ea, ThreadId tid) const;

    /**
     * Precomputed routing facts for one 8-bit interest-group field:
     * the decode plus the enabled member set of the group, so the hot
     * access path neither re-decodes the field nor re-derives the
     * group scaling per reference. Rebuilt when a cache is disabled.
     */
    struct RouteEntry
    {
        IgClass cls = IgClass::All;
        u8 index = 0;       ///< group index within the size class
        u8 memberCount = 0; ///< 0 for Own/Scratch (caller-resolved)
        u8 members[32] = {}; ///< enabled member cache ids, ascending
    };

    /** Routing entry of an interest-group field (shared decode). */
    const RouteEntry &
    routeEntry(u8 field) const
    {
        return routeLut_[field];
    }

    /**
     * access() of a reference whose address the caller has already
     * decoded and checked (Chip::decodeMem): @p entry is the route of
     * @p ea and @p pa its physical address.
     */
    MemTiming accessDecoded(Cycle now, ThreadId tid,
                            const RouteEntry &entry, Addr ea, PhysAddr pa,
                            u8 bytes, MemKind kind);

    /** Bank id + bank-local address an embedded address maps to. */
    std::pair<BankId, PhysAddr> routeInfo(PhysAddr addr) const;

    // --- Fault model ------------------------------------------------------

    /** Remove a failed bank; the address space contracts contiguously. */
    void failBank(BankId id);

    /** Remove a cache from interest-group scrambling (quad disabled). */
    void disableCache(CacheId id);

    /** Bitmask of operational caches. */
    u32 enabledCacheMask() const { return cacheMask_; }

    /** True if cache @p id is operational. */
    bool cacheEnabled(CacheId id) const { return (cacheMask_ >> id) & 1u; }

    /** Bytes of embedded memory currently addressable (MEMSZ SPR). */
    u32 availableMemBytes() const { return availBytes_; }

    /** Number of operational banks. */
    u32 availableBanks() const { return u32(availBanks_.size()); }

    // --- Memory-system heatmaps (profiling) -----------------------------

    /**
     * Start accumulating the (quad x bank) access/conflict matrices and
     * the per-interest-group-class hit/miss breakdown. Off by default;
     * the hot paths test one flag when disabled. Accumulation never
     * affects timing.
     */
    void enableHeatmap();

    bool heatmapEnabled() const { return heatOn_; }

    /** Bank accesses by requester quad: row-major numCaches x numBanks. */
    const std::vector<u64> &heatAccess() const { return heatAccess_; }

    /** Accesses that found their bank busy (grant.start > request). */
    const std::vector<u64> &heatConflict() const { return heatConflict_; }

    /** Per-IgClass access/hit/miss counts, indexed by IgClass value. */
    static constexpr u32 kNumIgClasses = 8;
    const u64 *igAccesses() const { return igAccess_; }
    const u64 *igHits() const { return igHit_; }
    const u64 *igMisses() const { return igMiss_; }

  private:
    struct BankRoute
    {
        MemBank *bank;
        PhysAddr bankAddr; ///< bank-local address
    };

    BankRoute route(PhysAddr addr);
    void noteBank(CacheId requester, const BankRoute &r, Cycle req,
                  const BankGrant &grant);

    CacheId routeCacheEntry(const RouteEntry &entry, Addr ea,
                            ThreadId tid) const;
    [[gnu::cold]] void traceAccess(ThreadId tid, Cycle now, Cycle ready,
                                   Addr ea, MemKind kind, bool miss,
                                   bool remote);
    void rebuildRouteLut();
    void updateBankGeometry();

    const ChipConfig *cfg_ = nullptr;
    Tracer *tracer_ = nullptr;
    std::vector<DCache> caches_;
    std::vector<MemBank> banks_;
    std::vector<BankId> availBanks_;
    u32 cacheMask_ = 0;

    // Strength-reduction state for route(): line size is always a
    // power of two; the bank count is one until a bank fails, so the
    // common case routes with shift/mask instead of div/mod.
    u32 lineShift_ = 6;
    u32 quadShift_ = 2; ///< log2(threadsPerQuad): tid -> local cache
    bool banksPow2_ = true;
    u32 bankShift_ = 4;
    u32 bankMask_ = 15;
    u32 availBytes_ = 0; ///< availableMemBytes()

    std::array<RouteEntry, 256> routeLut_;
    std::vector<CacheId> ownRemap_; ///< Own-class target per local cache

    // Heatmap accumulators (see enableHeatmap()).
    bool heatOn_ = false;
    std::vector<u64> heatAccess_;
    std::vector<u64> heatConflict_;
    u64 igAccess_[kNumIgClasses] = {};
    u64 igHit_[kNumIgClasses] = {};
    u64 igMiss_[kNumIgClasses] = {};

    Counter loads_;
    Counter stores_;
    Counter atomics_;
    Counter localHits_;
    Counter localMisses_;
    Counter remoteHits_;
    Counter remoteMisses_;
    Counter scratchOps_;
    Histogram loadLatency_;
};

} // namespace cyclops::arch

#endif // CYCLOPS_ARCH_MEMSYS_H
