/**
 * @file
 * Instruction cache (one per two quads) and the per-thread Prefetch
 * Instruction Buffer (PIB).
 *
 * Each thread fetches straight-line code out of its 16-instruction PIB
 * for free; leaving the buffer (a taken branch, or running off the
 * end) triggers a refill through the I-cache's single shared port. A
 * refill that misses the I-cache fetches the 32-byte line from the
 * memory banks.
 */

#ifndef CYCLOPS_ARCH_ICACHE_H
#define CYCLOPS_ARCH_ICACHE_H

#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"

namespace cyclops::arch
{

class MemSystem;

/** Timing model of one shared instruction cache. */
class ICache
{
  public:
    void init(u32 id, const ChipConfig &cfg, StatGroup *stats);

    /**
     * Refill a thread's PIB window starting at @p addr (the aligned
     * base of the window) for a thread of quad @p quad. Returns the
     * cycle the PIB is usable; if @p missesOut is non-null it receives
     * the number of I-cache line misses this refill took.
     */
    Cycle refill(Cycle now, PhysAddr addr, MemSystem &fabric, u32 quad,
                 u32 *missesOut = nullptr);

    u64 hits() const { return hits_.value(); }
    u64 misses() const { return misses_.value(); }

  private:
    /** Look up one line; inserts on miss. Returns true on hit. */
    bool lookupInsert(PhysAddr lineAddr, Cycle now);

    const ChipConfig *cfg_ = nullptr;
    u32 numSets_ = 0;

    struct Way
    {
        u32 tag = 0;
        bool valid = false;
        Cycle lastUse = 0;
    };
    std::vector<Way> ways_; ///< sets x assoc

    Cycle portFree_ = 0;

    Counter hits_;
    Counter misses_;
    Counter portWaitCycles_;
};

/** Per-thread prefetch instruction buffer state. */
class Pib
{
  public:
    void
    init(const ChipConfig &cfg)
    {
        windowBytes_ = cfg.pibEntries * 4;
        enabled_ = cfg.pibEnabled;
        invalidate();
    }

    /**
     * True if @p pc can issue straight from the buffer: one unsigned
     * compare. An empty buffer accepts nothing (span 0), a disabled one
     * everything (the whole address space).
     */
    bool
    contains(PhysAddr pc) const
    {
        return pc - base_ < span_;
    }

    /** Aligned window base for a refill at @p pc. */
    PhysAddr
    windowBase(PhysAddr pc) const
    {
        return pc & ~(windowBytes_ - 1);
    }

    /** Install the window holding @p pc. */
    void
    load(PhysAddr pc)
    {
        base_ = windowBase(pc);
        span_ = windowBytes_;
    }

    void
    invalidate()
    {
        base_ = 0;
        span_ = enabled_ ? 0 : ~PhysAddr(0);
    }

  private:
    PhysAddr base_ = 0;
    PhysAddr span_ = 0; ///< bytes contains() accepts from base_ on
    u32 windowBytes_ = 64;
    bool enabled_ = true;
};

} // namespace cyclops::arch

#endif // CYCLOPS_ARCH_ICACHE_H
