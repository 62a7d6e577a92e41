#include "arch/memsys.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/log.h"

namespace cyclops::arch
{

void
MemSystem::init(const ChipConfig &cfg, StatGroup *stats, Tracer *tracer)
{
    cfg_ = &cfg;
    tracer_ = tracer;
    caches_.resize(cfg.numCaches());
    banks_.resize(cfg.numBanks);
    availBanks_.clear();
    for (CacheId id = 0; id < cfg.numCaches(); ++id)
        caches_[id].init(id, cfg, stats);
    for (BankId id = 0; id < cfg.numBanks; ++id) {
        banks_[id].init(id, cfg, stats);
        availBanks_.push_back(id);
    }
    cacheMask_ = cfg.numCaches() >= 32 ? ~0u
                                       : (1u << cfg.numCaches()) - 1;
    lineShift_ = log2i(cfg.dcacheLineBytes);
    quadShift_ = log2i(cfg.threadsPerQuad);
    updateBankGeometry();
    rebuildRouteLut();
    if (stats) {
        stats->addCounter("mem.loads", &loads_);
        stats->addCounter("mem.stores", &stores_);
        stats->addCounter("mem.atomics", &atomics_);
        stats->addCounter("mem.localHits", &localHits_);
        stats->addCounter("mem.localMisses", &localMisses_);
        stats->addCounter("mem.remoteHits", &remoteHits_);
        stats->addCounter("mem.remoteMisses", &remoteMisses_);
        stats->addCounter("mem.scratchOps", &scratchOps_);
        stats->addHistogram("mem.loadLatency", &loadLatency_);
    }
}

void
MemSystem::rebuildRouteLut()
{
    for (u32 field = 0; field < 256; ++field) {
        RouteEntry &entry = routeLut_[field];
        const InterestGroup ig = igDecode(u8(field));
        entry.cls = ig.cls;
        entry.index = ig.index;
        if (ig.cls == IgClass::Own || ig.cls == IgClass::Scratch) {
            entry.memberCount = 0;
            continue;
        }
        entry.memberCount = u8(igGroupMembers(ig, cfg_->numCaches(),
                                              cacheMask_, entry.members));
    }

    // Own-class references of a TU whose local cache is dead are served
    // by the next alive cache (scanning upward with wrap-around):
    // locality is lost, but the address space stays fully usable on a
    // degraded chip.
    ownRemap_.assign(cfg_->numCaches(), 0);
    for (CacheId c = 0; c < cfg_->numCaches(); ++c) {
        CacheId target = c;
        for (u32 i = 0; i < cfg_->numCaches(); ++i) {
            const CacheId cand = (c + i) % cfg_->numCaches();
            if (cacheEnabled(cand)) {
                target = cand;
                break;
            }
        }
        ownRemap_[c] = target;
    }
}

void
MemSystem::updateBankGeometry()
{
    const u32 numAvail = u32(availBanks_.size());
    availBytes_ = numAvail * cfg_->bankBytes;
    banksPow2_ = isPow2(numAvail);
    if (banksPow2_) {
        bankShift_ = log2i(numAvail);
        bankMask_ = numAvail - 1;
    }
}

MemSystem::BankRoute
MemSystem::route(PhysAddr addr)
{
    // Line-granularity interleave over the operational banks; the fault
    // remap keeps the visible address space contiguous. With all banks
    // (or any power-of-two subset) operational the div/mod reduces to
    // shift/mask.
    const u32 lineIdx = addr >> lineShift_;
    const u32 lineOff = addr & (cfg_->dcacheLineBytes - 1);
    u32 slot, turn;
    if (banksPow2_) {
        slot = lineIdx & bankMask_;
        turn = lineIdx >> bankShift_;
    } else {
        const u32 numAvail = u32(availBanks_.size());
        slot = lineIdx % numAvail;
        turn = lineIdx / numAvail;
    }
    const BankId bank = availBanks_[slot];
    const PhysAddr bankAddr = (turn << lineShift_) + lineOff;
    return BankRoute{&banks_[bank], bankAddr};
}

std::pair<BankId, PhysAddr>
MemSystem::routeInfo(PhysAddr addr) const
{
    BankRoute r = const_cast<MemSystem *>(this)->route(addr);
    return {BankId(r.bank - banks_.data()), r.bankAddr};
}

void
MemSystem::enableHeatmap()
{
    heatOn_ = true;
    heatAccess_.assign(size_t(cfg_->numCaches()) * cfg_->numBanks, 0);
    heatConflict_.assign(size_t(cfg_->numCaches()) * cfg_->numBanks, 0);
}

void
MemSystem::noteBank(CacheId requester, const BankRoute &r, Cycle req,
                    const BankGrant &grant)
{
    const BankId bank = BankId(r.bank - banks_.data());
    const size_t idx = size_t(requester) * cfg_->numBanks + bank;
    ++heatAccess_[idx];
    if (grant.start > req)
        ++heatConflict_[idx];
}

BankGrant
MemSystem::fetchLine(Cycle req, PhysAddr lineAddr, u32 blocks,
                     CacheId requester)
{
    BankRoute r = route(lineAddr);
    BankGrant grant = r.bank->reserve(req, blocks, r.bankAddr);
    if (heatOn_)
        noteBank(requester, r, req, grant);
    return grant;
}

void
MemSystem::postWrite(Cycle when, PhysAddr lineAddr, u32 blocks,
                     CacheId requester)
{
    if (blocks == 0)
        return;
    BankRoute r = route(lineAddr);
    BankGrant grant = r.bank->reserve(when, blocks, r.bankAddr);
    if (heatOn_)
        noteBank(requester, r, when, grant);
}

inline CacheId
MemSystem::routeCacheEntry(const RouteEntry &entry, Addr ea,
                           ThreadId tid) const
{
    switch (entry.cls) {
      case IgClass::Own:
        return ownRemap_[localCacheOf(tid)];
      case IgClass::Scratch:
        return entry.index & (u32(caches_.size()) - 1);
      default: {
        if (entry.memberCount == 1)
            return entry.members[0];
        // Deterministic address scrambling over the precomputed member
        // set — identical to igSelectCache() on the same mask. Healthy
        // chips have power-of-two groups, so the modulo is a mask; a
        // degraded chip's odd-sized groups keep the real modulo.
        const PhysAddr lineAddr = igPhys(ea) & ~PhysAddr(
            cfg_->dcacheLineBytes - 1);
        const u32 hash = scramble32(lineAddr);
        const u32 n = entry.memberCount;
        return entry.members[isPow2(n) ? hash & (n - 1) : hash % n];
      }
    }
}

CacheId
MemSystem::routeCache(Addr ea, ThreadId tid) const
{
    return routeCacheEntry(routeLut_[igField(ea)], ea, tid);
}

MemTiming
MemSystem::access(Cycle now, ThreadId tid, Addr ea, u8 bytes, MemKind kind)
{
    const RouteEntry &entry = routeLut_[igField(ea)];
    const PhysAddr pa = igPhys(ea);
    const bool scratch = entry.cls == IgClass::Scratch;

    if (bytes == 0 || bytes > 8 || !isPow2(bytes))
        panic("memory access of %u bytes", bytes);
    if ((pa & (bytes - 1u)) != 0) // bytes is a power of two (above)
        guestCheck("misaligned %u-byte access at 0x%08x by thread %u",
                   bytes, ea, tid);
    if (!scratch && pa + bytes > availableMemBytes())
        guestCrash("physical address 0x%06x beyond available memory "
                   "(%u KB) — thread %u", pa,
                   availableMemBytes() / 1024, tid);
    if (scratch) {
        const CacheId sc = entry.index & (u32(caches_.size()) - 1);
        if (!cacheEnabled(sc))
            guestCheck("scratchpad access to disabled cache %u "
                       "(thread %u)", sc, tid);
    }
    return accessDecoded(now, tid, entry, ea, pa, bytes, kind);
}

MemTiming
MemSystem::accessDecoded(Cycle now, ThreadId tid, const RouteEntry &entry,
                         Addr ea, PhysAddr pa, u8 bytes, MemKind kind)
{
    const bool scratch = entry.cls == IgClass::Scratch;
    const CacheId target = routeCacheEntry(entry, ea, tid);
    const CacheId local = localCacheOf(tid);
    const bool remote = target != local;

    CacheAccess req;
    req.addr = pa;
    req.bytes = bytes;
    req.store = kind == MemKind::Store || kind == MemKind::Atomic;
    req.atomic = kind == MemKind::Atomic;
    req.scratch = scratch;
    req.arrive = now + (remote ? cfg_->lat.remoteReqHop : 0);

    CacheResult res = caches_[target].access(req, *this);

    Cycle ready = res.ready;
    if (remote) {
        ready += cfg_->lat.remoteRespHop;
        if (!res.hit)
            ready += cfg_->lat.remoteMissExtra;
    }
    if (kind == MemKind::Atomic)
        ready += cfg_->lat.atomicExtra;

    switch (kind) {
      case MemKind::Load:
      case MemKind::Prefetch:
        ++loads_;
        loadLatency_.sample(ready - now);
        break;
      case MemKind::Store:
        ++stores_;
        break;
      case MemKind::Atomic:
        ++atomics_;
        break;
    }
    if (scratch) {
        ++scratchOps_;
    } else if (res.hit) {
        remote ? ++remoteHits_ : ++localHits_;
    } else {
        remote ? ++remoteMisses_ : ++localMisses_;
    }
    if (heatOn_) {
        const u32 cls = static_cast<u8>(entry.cls);
        ++igAccess_[cls];
        if (!scratch)
            res.hit ? ++igHit_[cls] : ++igMiss_[cls];
    }
    if (tracer_ && tracer_->enabled()) [[unlikely]]
        traceAccess(tid, now, ready, ea, kind, !res.hit && !scratch, remote);

    return MemTiming{ready, target, remote, res.hit, res.queueWait};
}

void
MemSystem::traceAccess(ThreadId tid, Cycle now, Cycle ready, Addr ea,
                       MemKind kind, bool miss, bool remote)
{
    static const char *const kKindNames[] = {"load", "store", "atomic",
                                             "prefetch"};
    tracer_->complete(TraceCat::Mem, tid, kKindNames[static_cast<u8>(kind)],
                      now, ready - now, ea);
    if (miss)
        tracer_->complete(TraceCat::Cache, tid,
                          remote ? "remoteMiss" : "localMiss", now,
                          ready - now, ea);
}

Cycle
MemSystem::flush(Cycle now, ThreadId tid, Addr ea)
{
    const CacheId target = routeCache(ea, tid);
    const bool remote = target != localCacheOf(tid);
    const Cycle arrive = now + (remote ? cfg_->lat.remoteReqHop : 0);
    Cycle done = caches_[target].flushLine(igPhys(ea), arrive, *this);
    return done + (remote ? cfg_->lat.remoteRespHop : 0);
}

Cycle
MemSystem::invalidate(Cycle now, ThreadId tid, Addr ea)
{
    const CacheId target = routeCache(ea, tid);
    const bool remote = target != localCacheOf(tid);
    const Cycle arrive = now + (remote ? cfg_->lat.remoteReqHop : 0);
    Cycle done = caches_[target].invalidateLine(igPhys(ea), arrive);
    return done + (remote ? cfg_->lat.remoteRespHop : 0);
}

void
MemSystem::failBank(BankId id)
{
    if (id >= cfg_->numBanks)
        fatal("failBank: no bank %u", id);
    std::erase(availBanks_, id);
    if (availBanks_.empty())
        fatal("failBank: all banks failed");
    updateBankGeometry();
}

void
MemSystem::disableCache(CacheId id)
{
    if (id >= cfg_->numCaches())
        fatal("disableCache: no cache %u", id);
    cacheMask_ &= ~(1u << id);
    if (cacheMask_ == 0)
        fatal("disableCache: all caches disabled");
    rebuildRouteLut();
}

} // namespace cyclops::arch
