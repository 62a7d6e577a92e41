#include "arch/dcache.h"

#include <algorithm>

#include "arch/memsys.h"
#include "common/bitops.h"
#include "common/log.h"

namespace cyclops::arch
{

void
DCache::init(CacheId id, const ChipConfig &cfg, StatGroup *stats)
{
    id_ = id;
    cfg_ = &cfg;
    assoc_ = cfg.dcacheAssoc;
    lineShift_ = log2i(cfg.dcacheLineBytes);
    setShift_ = log2i(cfg.dcacheSets());
    setMask_ = cfg.dcacheSets() - 1;
    waysBegin_ = cfg.dcacheScratchWays;
    // Reduced-way degradation: fault.cacheWays live ways per set (the
    // remaining ways' SRAM is fused off). Geometry (set indexing) is
    // unchanged; validate() guarantees at least one live way.
    waysEnd_ = cfg.fault.cacheWays != 0
                   ? waysBegin_ + cfg.fault.cacheWays
                   : cfg.dcacheAssoc;
    scratchBytes_ = cfg.dcacheScratchWays *
                    (cfg.dcacheBytes / cfg.dcacheAssoc);
    blocksPerLine_ = cfg.dcacheLineBytes / cfg.memBlockBytes;
    fullMask_ = cfg.dcacheLineBytes >= 64
                    ? ~u64(0)
                    : (u64(1) << cfg.dcacheLineBytes) - 1;
    tags_.assign(size_t(cfg.dcacheSets()) * assoc_, kNoTag);
    lines_.assign(tags_.size(), Line{});

    if (stats) {
        const std::string prefix = strprintf("dcache%u.", id);
        stats->addCounter(prefix + "hits", &hits_);
        stats->addCounter(prefix + "misses", &misses_);
        stats->addCounter(prefix + "storeAllocs", &storeAllocs_);
        stats->addCounter(prefix + "loadMerges", &loadMerges_);
        stats->addCounter(prefix + "writebacks", &writebacks_);
        stats->addCounter(prefix + "wbBlocks", &wbBlocks_);
        stats->addCounter(prefix + "portWaitCycles", &portWaitCycles_);
        stats->addCounter(prefix + "mshrFullWaits", &mshrFullWaits_);
        stats->addCounter(prefix + "scratchAccesses", &scratchAccesses_);
    }
}

u32
DCache::lookupAddr(PhysAddr addr) const
{
    const u32 line = addr >> lineShift_;
    return lookup(line & setMask_, line >> setShift_);
}

u32
DCache::victim(u32 set, Cycle now) const
{
    const u32 base = set * assoc_;
    u32 best = kNoSlot;
    for (u32 way = waysBegin_; way < waysEnd_; ++way) {
        const u32 slot = base + way;
        if (tags_[slot] == kNoTag)
            return slot;
        // Never evict a line whose fill is still in flight.
        if (lines_[slot].fillDone > now)
            continue;
        if (best == kNoSlot || lines_[slot].lastUse < lines_[best].lastUse)
            best = slot;
    }
    if (best == kNoSlot) {
        // Every way is mid-fill; fall back to the LRU regardless (its
        // fill will simply be wasted). Extremely rare by construction.
        for (u32 way = waysBegin_; way < waysEnd_; ++way) {
            const u32 slot = base + way;
            if (best == kNoSlot ||
                lines_[slot].lastUse < lines_[best].lastUse)
                best = slot;
        }
    }
    return best;
}

void
DCache::writeback(u32 slot, u32 set, Cycle when, MemSystem &fabric)
{
    Line &line = lines_[slot];
    if (!line.dirtyMask)
        return;
    // Only the 32-byte blocks containing dirty bytes travel to memory.
    const u32 blockBytes = cfg_->memBlockBytes;
    u32 dirtyBlocks = 0;
    for (u32 block = 0; block < blocksPerLine_; ++block) {
        const u64 blockMask = ((u64(1) << blockBytes) - 1)
                              << (block * blockBytes);
        if (line.dirtyMask & blockMask)
            ++dirtyBlocks;
    }
    const PhysAddr lineAddr = ((tags_[slot] << setShift_) | set)
                              << lineShift_;
    fabric.postWrite(when, lineAddr, dirtyBlocks, id_);
    ++writebacks_;
    wbBlocks_ += dirtyBlocks;
    line.dirtyMask = 0;
}

void
DCache::invalidateSlot(u32 slot)
{
    tags_[slot] = kNoTag;
    lines_[slot].validMask = lines_[slot].dirtyMask = 0;
}

CacheResult
DCache::accessSlow(const CacheAccess &req, Cycle grant, u32 slot,
                   MemSystem &fabric)
{
    const LatencyConfig &lat = cfg_->lat;
    // Queueing (contention) share of the final latency, reported so the
    // requesting TU can split its wait into service vs contention.
    const u64 portWait = grant - req.arrive;

    if (req.scratch) {
        if (scratchBytes_ == 0)
            guestCheck("scratchpad access to cache %u, but no ways are "
                       "partitioned (set dcacheScratchWays)", id_);
        ++scratchAccesses_;
        return CacheResult{grant + lat.memLocalHit, true, portWait};
    }

    const u32 line = req.addr >> lineShift_;
    const u32 set = line & setMask_;
    const u64 reqMask = this->reqMask(req);

    if (slot != kNoSlot) {
        // Line present but the requested bytes were never fetched
        // (allocate-no-fetch residue): fetch and merge the line.
        Line &resident = lines_[slot];
        ++misses_;
        const Cycle bankReq = grant + lat.missToBank;
        BankGrant bg = fabric.fetchLine(bankReq, line << lineShift_,
                                        blocksPerLine_, id_);
        const Cycle fillDone = bg.start + bg.transferCycles;
        resident.validMask = fullMask_;
        resident.fillDone = std::max(resident.fillDone, fillDone);
        if (req.atomic)
            resident.dirtyMask |= reqMask;
        fills_.push_back(fillDone);
        return CacheResult{fillDone + lat.bankToCache, false,
                           portWait + (bg.start - bankReq)};
    }

    // ---- Miss path ----
    // MSHR occupancy: distinct line fills in flight are bounded.
    std::erase_if(fills_, [&](Cycle done) { return done <= grant; });
    Cycle start = grant;
    if (fills_.size() >= cfg_->dcacheMshrs) {
        Cycle earliest = *std::min_element(fills_.begin(), fills_.end());
        start = std::max(start, earliest);
        ++mshrFullWaits_;
    }

    slot = victim(set, start);
    if (tags_[slot] != kNoTag)
        writeback(slot, set, start, fabric);
    tags_[slot] = line >> setShift_;
    Line &way = lines_[slot];
    way.lastUse = start;

    if (req.store && !req.atomic && cfg_->storeAllocNoFetch) {
        // Allocate without fetching: the store provides the only valid
        // bytes. Streaming full-line writes never touch the banks here.
        way.validMask = reqMask;
        way.dirtyMask = reqMask;
        way.fillDone = start;
        ++misses_;
        ++storeAllocs_;
        return CacheResult{start + lat.memLocalHit, false,
                           portWait + (start - grant)};
    }

    const Cycle bankReq = start + lat.missToBank;
    BankGrant bg =
        fabric.fetchLine(bankReq, line << lineShift_,
                         blocksPerLine_, id_);
    const Cycle fillDone = bg.start + bg.transferCycles;
    way.validMask = fullMask_;
    way.dirtyMask = req.store ? reqMask : 0;
    way.fillDone = fillDone;
    fills_.push_back(fillDone);
    ++misses_;
    return CacheResult{fillDone + lat.bankToCache, false,
                       portWait + (start - grant) + (bg.start - bankReq)};
}

Cycle
DCache::flushLine(PhysAddr addr, Cycle arrive, MemSystem &fabric)
{
    const Cycle grant = grantPort(arrive);
    if (const u32 slot = lookupAddr(addr); slot != kNoSlot) {
        writeback(slot, (addr >> lineShift_) & setMask_, grant, fabric);
        invalidateSlot(slot);
    }
    return grant + cfg_->lat.memLocalHit;
}

Cycle
DCache::invalidateLine(PhysAddr addr, Cycle arrive)
{
    const Cycle grant = grantPort(arrive);
    if (const u32 slot = lookupAddr(addr); slot != kNoSlot)
        invalidateSlot(slot);
    return grant + cfg_->lat.memLocalHit;
}

bool
DCache::probe(PhysAddr addr) const
{
    return lookupAddr(addr) != kNoSlot;
}

bool
DCache::faultLine(u32 idx)
{
    const u32 slot = idx % numLines();
    const bool wasValid = tags_[slot] != kNoTag;
    invalidateSlot(slot);
    return wasValid;
}

} // namespace cyclops::arch
