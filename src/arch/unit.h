/**
 * @file
 * The execution-unit interface driven by the chip's cycle engine.
 *
 * A Unit models what occupies one hardware thread unit. Two frontends
 * implement it: the ISA interpreter (arch/thread_unit.h) and the
 * execution-driven coroutine adapter (exec/guest_unit.h). Both share
 * run/stall-cycle accounting, which Figure 7 of the paper reports.
 */

#ifndef CYCLOPS_ARCH_UNIT_H
#define CYCLOPS_ARCH_UNIT_H

#include <algorithm>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace cyclops::arch
{

/**
 * Where one thread-unit cycle went — the Figure 7 total/run/stall
 * split, generalized to the paper's individual stall causes. Every
 * cycle between a unit's first and last activity is charged to exactly
 * one category; cycles outside that window (before spawn, after halt,
 * or parked between kernel dispatches) are "sleep".
 */
enum class CycleCat : u8 {
    Run = 0,            ///< issuing/executing instructions
    IcacheMiss = 1,     ///< waiting on a PIB refill through the I-cache
    DcacheMiss = 2,     ///< waiting on data-memory results (service time)
    BankContention = 3, ///< queueing share of memory waits (ports/banks)
    FpuArb = 4,         ///< FPU/long-latency functional-unit waits
    BarrierWait = 5,    ///< barrier entry and spin waits
    RemoteWait = 6,     ///< fabric round trips and injection backpressure
};

inline constexpr u32 kNumCycleCats = 7;

/** Display names; index kNumCycleCats is the derived "sleep" bucket. */
inline constexpr const char *kCycleCatNames[kNumCycleCats + 1] = {
    "run",  "icacheMiss",  "dcacheMiss",
    "bankContention", "fpuArb", "barrierWait", "remoteWait", "sleep"};

/** Per-category cycle totals for one TU, one quad, or the whole chip. */
struct CycleBreakdown {
    u64 cat[kNumCycleCats] = {};
    u64 sleep = 0;

    u64 &operator[](CycleCat c) { return cat[static_cast<u8>(c)]; }
    u64 operator[](CycleCat c) const { return cat[static_cast<u8>(c)]; }

    /** Cycles charged to an explicit category (excludes sleep). */
    u64
    charged() const
    {
        u64 sum = 0;
        for (u64 v : cat)
            sum += v;
        return sum;
    }

    /** All cycles including sleep. */
    u64 total() const { return charged() + sleep; }

    /** Indexed access; index kNumCycleCats is the sleep bucket. */
    u64 value(u32 i) const { return i < kNumCycleCats ? cat[i] : sleep; }

    void
    add(const CycleBreakdown &other)
    {
        for (u32 i = 0; i < kNumCycleCats; ++i)
            cat[i] += other.cat[i];
        sleep += other.sleep;
    }
};

/** One schedulable hardware thread context. */
class Unit
{
  public:
    explicit Unit(ThreadId tid) : tid_(tid) {}
    virtual ~Unit() = default;

    Unit(const Unit &) = delete;
    Unit &operator=(const Unit &) = delete;

    /**
     * Advance this unit at cycle @p now (it is only called when due).
     *
     * @return the next cycle the unit wants to run, or kCycleNever if
     *         it halted. Must be > @p now unless halted.
     */
    virtual Cycle tick(Cycle now) = 0;

    /** True once the unit has executed its halt. */
    bool halted() const { return halted_; }

    ThreadId tid() const { return tid_; }

    /** Cycles spent issuing/executing instructions. */
    u64 runCycles() const { return cat_[static_cast<u8>(CycleCat::Run)]; }

    /** Cycles spent stalled on operands or shared resources. */
    u64 stallCycles() const { return chargedCycles() - runCycles(); }

    /** Cycles charged to @p c. */
    u64 catCycles(CycleCat c) const { return cat_[static_cast<u8>(c)]; }

    /** All cycles charged to any category (= run + stall). */
    u64
    chargedCycles() const
    {
        u64 sum = 0;
        for (u64 v : cat_)
            sum += v;
        return sum;
    }

    /**
     * First cycle any charge begins / one past the last cycle charged.
     * The accounting invariant — every cycle between them charged to
     * exactly one category — is lastChargeEnd() - firstChargeAt() ==
     * chargedCycles(), which tests assert per TU.
     */
    Cycle firstChargeAt() const { return firstChargeAt_; }
    Cycle lastChargeEnd() const { return lastChargeEnd_; }

    /** Instructions issued. */
    u64 instructions() const { return instructions_; }

    /** Per-TU cache event counts (guest-visible via counter SPRs). */
    u64 dcacheHits() const { return dcacheHits_; }
    u64 dcacheMisses() const { return dcacheMisses_; }
    u64 icacheMisses() const { return icacheMisses_; }

    /**
     * Current architectural PC for the PC-sampling profiler. Frontends
     * without a program counter (the coroutine adapter) return false and
     * are sampled as unmapped.
     */
    virtual bool samplePc(PhysAddr *pc) const
    {
        (void)pc;
        return false;
    }

    /**
     * Forward-progress events observed so far — food for the chip-wide
     * deadlock watchdog. Retired instructions do *not* count: a TU
     * spinning on a barrier retires load/compare/branch forever. Both
     * frontends instead report an event when they do something a spin
     * loop cannot: write a new value, store, or poll a location whose
     * value changed since the last poll at the same site.
     */
    u64 progressEvents() const { return progressEvents_; }

    /** Last location polled (notePoll) — watchdog diagnostics. */
    PhysAddr pollPc() const { return pollPc_; }
    u64 pollLoc() const { return pollLoc_; }
    u64 pollValue() const { return pollValue_; }

  protected:
    /** Count one data-side cache access against this TU. */
    void
    noteDmem(bool hit)
    {
        if (hit)
            ++dcacheHits_;
        else
            ++dcacheMisses_;
    }

    /** Count @p misses I-cache line misses against this TU. */
    void noteImiss(u64 misses) { icacheMisses_ += misses; }
    /**
     * Record the issue at @p now of one instruction occupying @p exec
     * cycles: charges [now, now+exec) as Run.
     */
    void
    accountIssue(Cycle now, u32 exec)
    {
        cat_[static_cast<u8>(CycleCat::Run)] += exec;
        ++instructions_;
        touch(now, now + exec);
    }

    /** Charge the blocked interval [now, wake) to @p cat. */
    void
    accountWait(Cycle now, Cycle wake, CycleCat cat)
    {
        if (wake <= now)
            return;
        cat_[static_cast<u8>(cat)] += wake - now;
        touch(now, wake);
    }

    /**
     * Charge a memory wait [now, wake): up to @p queueing cycles of it
     * are contention (time the request spent queued at a cache port,
     * MSHR or bank) and go to BankContention; the rest — the intrinsic
     * service time — goes to @p cat. RemoteWait is the exception: its
     * queueing share is fabric injection backpressure, not bank
     * contention, so the whole span stays in the remote bucket.
     */
    void
    accountMemWait(Cycle now, Cycle wake, CycleCat cat, u64 queueing)
    {
        if (wake <= now)
            return;
        const u64 span = wake - now;
        const u64 queued = cat == CycleCat::RemoteWait
                               ? 0
                               : std::min(span, queueing);
        cat_[static_cast<u8>(CycleCat::BankContention)] += queued;
        cat_[static_cast<u8>(cat)] += span - queued;
        touch(now, wake);
    }

    void markHalted() { halted_ = true; ++progressEvents_; }

    /** Report an unconditional forward-progress event. */
    void noteProgress() { ++progressEvents_; }

    /**
     * Report a poll: a read of @p loc at site @p pc that produced
     * @p value. Progress only if the (site, location, value) tuple
     * differs from the previous poll — a spin loop re-reading an
     * unchanged barrier SPR or lock word generates none, while a
     * consumer seeing a producer's write does.
     */
    void
    notePoll(PhysAddr pc, u64 loc, u64 value)
    {
        if (pc != pollPc_ || loc != pollLoc_ || value != pollValue_) {
            pollPc_ = pc;
            pollLoc_ = loc;
            pollValue_ = value;
            ++progressEvents_;
        }
    }

    /** Extend the charged window to cover [start, end). */
    void
    touch(Cycle start, Cycle end)
    {
        if (start < firstChargeAt_)
            firstChargeAt_ = start;
        if (end > lastChargeEnd_)
            lastChargeEnd_ = end;
    }

    ThreadId tid_;
    bool halted_ = false;
    u64 cat_[kNumCycleCats] = {};
    Cycle firstChargeAt_ = kCycleNever;
    Cycle lastChargeEnd_ = 0;
    u64 instructions_ = 0;
    u64 dcacheHits_ = 0;
    u64 dcacheMisses_ = 0;
    u64 icacheMisses_ = 0;
    u64 progressEvents_ = 0;
    PhysAddr pollPc_ = ~PhysAddr(0);
    u64 pollLoc_ = ~u64(0);
    u64 pollValue_ = 0;
};

/**
 * Bounded set of in-flight memory operation completion times — the
 * per-thread limit on outstanding memory references. Each entry also
 * remembers whether it crossed the fabric, so a wait gated on a remote
 * operation is charged to RemoteWait instead of the d-cache bucket.
 * Completed operations are dropped only when the set is at its limit
 * (or a sync asks), and the earliest completion time is kept up to
 * date, so the common test is one compare.
 */
class OutstandingMem
{
  public:
    void
    init(u32 limit)
    {
        limit_ = limit;
        count_ = 0;
        minDone_ = kCycleNever;
        entries_.assign(limit, Entry{});
    }

    /** Drop completed operations, keeping the others in order. */
    void
    prune(Cycle now)
    {
        if (now < minDone_)
            return; // nothing has completed (or nothing is tracked)
        u32 kept = 0;
        Cycle earliest = kCycleNever;
        for (u32 i = 0; i < count_; ++i) {
            if (entries_[i].done > now) {
                earliest = std::min(earliest, entries_[i].done);
                entries_[kept++] = entries_[i];
            }
        }
        count_ = kept;
        minDone_ = earliest;
    }

    /**
     * Whether limit operations are still in flight at @p now. Below the
     * limit nothing needs dropping to answer, so completed operations
     * are pruned only here at the limit (and by prune()).
     */
    bool
    full(Cycle now)
    {
        if (count_ < limit_)
            return false;
        prune(now);
        return count_ >= limit_;
    }

    /** Nothing tracked; exact after prune(). */
    bool empty() const { return count_ == 0; }

    /** Completion time that frees the first slot (after full()). */
    Cycle earliest() const { return minDone_; }

    /** Completion time of the last operation to finish. */
    Cycle latest() const { return maxEntry().done; }

    /** Whether the operation freeing the first slot is remote. */
    bool
    earliestFabric() const
    {
        // First-min: a deterministic tie-break for attribution when
        // completion times collide.
        for (u32 i = 0;; ++i)
            if (entries_[i].done == minDone_)
                return entries_[i].fabric;
    }

    /** Whether the operation finishing last is remote. */
    bool latestFabric() const { return maxEntry().fabric; }

    /** Track one more operation; callers check full(now) first. */
    void
    add(Cycle done, bool fabric = false)
    {
        entries_[count_++] = {done, fabric};
        minDone_ = std::min(minDone_, done);
    }

  private:
    struct Entry
    {
        Cycle done = 0;
        bool fabric = false;
    };

    // First-max, the counterpart of earliestFabric's first-min.
    const Entry &
    maxEntry() const
    {
        return *std::max_element(
            entries_.begin(), entries_.begin() + count_,
            [](const Entry &a, const Entry &b) { return a.done < b.done; });
    }

    u32 limit_ = 4;
    u32 count_ = 0;
    Cycle minDone_ = kCycleNever; ///< earliest done of the tracked entries
    std::vector<Entry> entries_; ///< limit_ slots, the first count_ live
};

} // namespace cyclops::arch

#endif // CYCLOPS_ARCH_UNIT_H
