/**
 * @file
 * One 16 KB quad data cache.
 *
 * Timing-directory design: the cache tracks tags, per-byte valid/dirty
 * masks and timing; functional data lives in the chip's flat memory
 * image (see DESIGN.md on the non-coherence substitution).
 *
 * Features from the paper:
 *  - up to 8-way associativity (configurable), 64-byte lines, LRU;
 *  - a single port moving up to 8 bytes per cycle (32 caches => 128 GB/s
 *    peak aggregate);
 *  - way-partitioning at 2 KB granularity: `scratchWays` ways act as
 *    directly addressable fast memory (interest-group class Scratch);
 *  - MSHR-style merging of requests to a line whose fill is in flight;
 *  - write-allocate-no-fetch store misses with per-byte valid masks
 *    (see DESIGN.md), which lets streaming stores run at bank bandwidth.
 */

#ifndef CYCLOPS_ARCH_DCACHE_H
#define CYCLOPS_ARCH_DCACHE_H

#include <algorithm>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"

namespace cyclops::arch
{

class MemSystem;

/** One data-cache access request, already routed to this cache. */
struct CacheAccess
{
    PhysAddr addr = 0;   ///< physical byte address
    u8 bytes = 0;        ///< naturally aligned size (1..8)
    bool store = false;
    bool atomic = false;
    bool scratch = false; ///< scratchpad-window access (no tags)
    Cycle arrive = 0;    ///< cycle the request reaches this cache
};

/** Completion information at the cache (before response hops). */
struct CacheResult
{
    Cycle ready = 0;  ///< data available at this cache
    bool hit = false; ///< tag hit (scratch accesses always hit)
    u64 queueWait = 0; ///< queueing cycles: port + MSHR + bank queue
};

/** Timing model of one quad data cache. */
class DCache
{
  public:
    DCache() = default;

    /** Configure geometry and register statistics. */
    void init(CacheId id, const ChipConfig &cfg, StatGroup *stats);

    /**
     * Perform one access; @p fabric provides bank service for fills.
     * The common hit inline; scratch accesses, fetches and misses out
     * of line.
     */
    CacheResult
    access(const CacheAccess &req, MemSystem &fabric)
    {
        const Cycle grant = grantPort(req.arrive);
        u32 slot = kNoSlot;
        if (!req.scratch) [[likely]] {
            const u32 line = req.addr >> lineShift_;
            slot = lookup(line & setMask_, line >> setShift_);
            if (slot != kNoSlot) {
                Line &hit = lines_[slot];
                hit.lastUse = grant;
                const u64 mask = reqMask(req);
                const bool filling = hit.fillDone > grant;
                const bool plainStore = req.store && !req.atomic;
                if (plainStore || filling ||
                    (hit.validMask & mask) == mask) {
                    // A store only needs the tag (its bytes become
                    // valid and dirty); a load hits or merges with the
                    // fill in flight.
                    if (req.store) {
                        hit.validMask |= mask;
                        hit.dirtyMask |= mask;
                    }
                    ++hits_;
                    if (filling)
                        ++loadMerges_;
                    return CacheResult{
                        std::max(grant + cfg_->lat.memLocalHit,
                                 hit.fillDone),
                        true, grant - req.arrive};
                }
            }
        }
        return accessSlow(req, grant, slot, fabric);
    }

    /** dcbf: write back (if dirty) and invalidate the line, if present. */
    Cycle flushLine(PhysAddr addr, Cycle arrive, MemSystem &fabric);

    /** dcbi: invalidate the line without writing it back, if present. */
    Cycle invalidateLine(PhysAddr addr, Cycle arrive);

    /** True if the line holding @p addr is resident (tests/statistics). */
    bool probe(PhysAddr addr) const;

    /** Bytes of the scratchpad partition (dcacheScratchWays ways). */
    u32 scratchBytes() const { return scratchBytes_; }

    /** Total line slots (sets x ways), for fault-injection targeting. */
    u32 numLines() const { return u32(tags_.size()); }

    /**
     * Transient fault in line slot @p idx: drop it from the directory
     * (valid/dirty cleared) as if its tag array glitched. Returns true
     * if the slot held a valid line. Timing-directory design means
     * functional data is unaffected — this perturbs timing only, which
     * fault campaigns must classify as masked.
     */
    bool faultLine(u32 idx);

    /** First and one-past-last way usable as cache (fault model). */
    u32 waysBegin() const { return waysBegin_; }
    u32 waysEnd() const { return waysEnd_; }

  private:
    /** Per-slot state besides the tag, indexed like tags_. */
    struct Line
    {
        u64 validMask = 0; ///< bit per byte: contents present
        u64 dirtyMask = 0; ///< bit per byte: needs writeback
        Cycle fillDone = 0;
        Cycle lastUse = 0;
    };

    /** Tag of an empty slot: above any tag a 32-bit address yields. */
    static constexpr u32 kNoTag = ~0u;
    /** lookup() result when the line is not resident. */
    static constexpr u32 kNoSlot = ~0u;

    /** Slot (set * assoc + way) holding @p tag in @p set, or kNoSlot. */
    u32
    lookup(u32 set, u32 tag) const
    {
        const u32 base = set * assoc_;
        for (u32 way = waysBegin_; way < waysEnd_; ++way)
            if (tags_[base + way] == tag)
                return base + way;
        return kNoSlot;
    }

    /** Byte mask of @p req within its line. */
    u64
    reqMask(const CacheAccess &req) const
    {
        const u32 byteOff = req.addr & ((1u << lineShift_) - 1);
        return req.bytes >= 64 ? ~u64(0)
                               : ((u64(1) << req.bytes) - 1) << byteOff;
    }

    /**
     * access() past the port grant and the lookup, for what the inline
     * hit does not take: a scratch access, a resident line without the
     * requested bytes (@p slot), or a miss (@p slot is kNoSlot).
     */
    CacheResult accessSlow(const CacheAccess &req, Cycle grant, u32 slot,
                           MemSystem &fabric);
    /** lookup() of the line holding byte address @p addr. */
    u32 lookupAddr(PhysAddr addr) const;
    u32 victim(u32 set, Cycle now) const;
    void writeback(u32 slot, u32 set, Cycle when, MemSystem &fabric);
    void invalidateSlot(u32 slot);

    /** Reserve the single cache port; returns the grant cycle. */
    Cycle
    grantPort(Cycle arrive)
    {
        const Cycle grant = std::max(arrive, portFree_);
        portWaitCycles_ += grant - arrive;
        portFree_ = grant + 1;
        return grant;
    }

    CacheId id_ = 0;
    const ChipConfig *cfg_ = nullptr;
    // Geometry. Line size and set count are powers of two (checked by
    // ChipConfig::check()), so line, set and tag are shifts and masks.
    u32 assoc_ = 0;
    u32 lineShift_ = 0; ///< log2(line bytes)
    u32 setShift_ = 0;  ///< log2(sets)
    u32 setMask_ = 0;   ///< sets - 1
    u32 blocksPerLine_ = 0; ///< memory blocks per line (fills, writebacks)
    u32 waysBegin_ = 0; ///< first way usable as cache (after scratch ways)
    u32 waysEnd_ = 0;   ///< one past the last live way (reduced-way faults)
    u32 scratchBytes_ = 0;
    u64 fullMask_ = 0;  ///< valid mask covering the whole line
    // The directory, sets * assoc slots, way-major within a set. The
    // tags of one set are contiguous, so a lookup reads one host cache
    // line; kNoTag marks an invalid slot.
    std::vector<u32> tags_;
    std::vector<Line> lines_;

    Cycle portFree_ = 0;
    std::vector<Cycle> fills_; ///< MSHR: completion times of live fills

    Counter hits_;
    Counter misses_;
    Counter storeAllocs_;   ///< allocate-no-fetch store misses
    Counter loadMerges_;    ///< accesses satisfied by an in-flight fill
    Counter writebacks_;
    Counter wbBlocks_;      ///< 32-byte blocks written back
    Counter portWaitCycles_;
    Counter mshrFullWaits_;
    Counter scratchAccesses_;
};

} // namespace cyclops::arch

#endif // CYCLOPS_ARCH_DCACHE_H
