#include "arch/icache.h"

#include <algorithm>

#include "arch/memsys.h"
#include "common/bitops.h"
#include "common/log.h"

namespace cyclops::arch
{

void
ICache::init(u32 id, const ChipConfig &cfg, StatGroup *stats)
{
    cfg_ = &cfg;
    // ChipConfig::check() guarantees a power-of-two set count.
    numSets_ = cfg.icacheBytes / (cfg.icacheLineBytes * cfg.icacheAssoc);
    ways_.assign(size_t(numSets_) * cfg.icacheAssoc, Way{});
    if (stats) {
        const std::string prefix = strprintf("icache%u.", id);
        stats->addCounter(prefix + "hits", &hits_);
        stats->addCounter(prefix + "misses", &misses_);
        stats->addCounter(prefix + "portWaitCycles", &portWaitCycles_);
    }
}

bool
ICache::lookupInsert(PhysAddr lineAddr, Cycle now)
{
    const u32 line = lineAddr / cfg_->icacheLineBytes;
    const u32 set = line & (numSets_ - 1);
    const u32 tag = line / numSets_;
    Way *base = &ways_[size_t(set) * cfg_->icacheAssoc];
    Way *lru = base;
    for (u32 i = 0; i < cfg_->icacheAssoc; ++i) {
        if (base[i].valid && base[i].tag == tag) {
            base[i].lastUse = now;
            return true;
        }
        if (!base[i].valid || base[i].lastUse < lru->lastUse)
            lru = &base[i];
    }
    lru->valid = true;
    lru->tag = tag;
    lru->lastUse = now;
    return false;
}

Cycle
ICache::refill(Cycle now, PhysAddr addr, MemSystem &fabric, u32 quad,
               u32 *missesOut)
{
    const Cycle grant = std::max(now, portFree_);
    portWaitCycles_ += grant - now;
    portFree_ = grant + 1;

    // The PIB window may span several I-cache lines; the slowest line
    // determines readiness (interleaved banks serve them in parallel).
    const u32 windowBytes = cfg_->pibEntries * 4;
    Cycle ready = grant + cfg_->lat.icacheHitRefill;
    u32 lineMisses = 0;
    for (PhysAddr lineAddr = PhysAddr(roundDown(addr, cfg_->icacheLineBytes));
         lineAddr < addr + windowBytes;
         lineAddr += cfg_->icacheLineBytes) {
        if (lookupInsert(lineAddr, grant)) {
            ++hits_;
            continue;
        }
        ++misses_;
        ++lineMisses;
        const Cycle bankReq = grant + cfg_->lat.missToBank;
        BankGrant bg = fabric.fetchLine(
            bankReq, lineAddr,
            cfg_->icacheLineBytes / cfg_->memBlockBytes, quad);
        ready = std::max(ready, bg.start + bg.transferCycles +
                                    cfg_->lat.bankToCache);
    }
    if (missesOut)
        *missesOut = lineMisses;
    return ready;
}

} // namespace cyclops::arch
