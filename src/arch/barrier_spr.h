/**
 * @file
 * The fast inter-thread hardware barrier (paper section 2.3).
 *
 * Every thread owns an 8-bit special purpose register; reading the SPR
 * returns the wired OR of all threads' registers. Two bits serve each
 * of 4 distinct barriers: one bit holds the state of the current
 * barrier cycle, the other the state of the next cycle. To enter a
 * barrier a thread atomically clears its current bit and sets its next
 * bit, then spins reading the OR until the current bit drops to zero —
 * which happens exactly when every participant has entered. Roles swap
 * after each use. Because each thread spin-waits on its own register,
 * there is no contention for other chip resources.
 *
 * This class is the functional wired-OR; the SPR read/write timing is
 * charged by the frontends (sprLat).
 *
 * Usage note: two *consecutive* global barriers must use different
 * barrier ids. Re-using one id back-to-back races a slow spinner
 * against fast threads whose re-entry sets the very bit the spinner
 * waits to see drop — one reason the register provides four distinct
 * barriers. Software layers here alternate between two ids.
 */

#ifndef CYCLOPS_ARCH_BARRIER_SPR_H
#define CYCLOPS_ARCH_BARRIER_SPR_H

#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace cyclops::arch
{

/** Number of distinct hardware barriers (8 bits / 2 per barrier). */
inline constexpr u32 kNumHwBarriers = 4;

/** The chip-wide wired-OR barrier network. */
class BarrierSpr
{
  public:
    void init(u32 numThreads, StatGroup *stats);

    /** Write thread @p tid's 8-bit register. */
    void write(ThreadId tid, u8 value);

    /**
     * Mask the wired OR to alive TUs (degraded chip): dead threads'
     * registers are forced to zero and later writes from them are
     * ignored, so a fused-off TU can never hold a barrier bit high.
     * @p alive has one nonzero byte per alive thread; an empty vector
     * restores the everyone-alive default.
     */
    void setAlive(const std::vector<u8> &alive);

    /** Read the OR of all registers (what any mfspr returns). */
    u8 read() const { return orValue_; }

    /** Raw register of one thread (testing/debug). */
    u8 threadValue(ThreadId tid) const { return regs_[tid]; }

  private:
    void recomputeOr();

    std::vector<u8> regs_;
    std::vector<u8> alive_; ///< empty = all threads alive
    u8 orValue_ = 0;
    std::vector<u32> bitCounts_; ///< population count per bit position

    Counter writes_;
    Counter releases_; ///< wired-OR bits dropping 1 -> 0 (barrier opens)
};

/**
 * Software-side protocol helper: the per-thread state for using one of
 * the 4 hardware barriers. Mirrors the bit manipulation that generated
 * code performs, so both frontends share one implementation.
 */
class HwBarrierProtocol
{
  public:
    explicit HwBarrierProtocol(u32 barrierId = 0) : id_(barrierId) {}

    /** Bits to write before first use (participants only). */
    u8 armValue() const { return u8(1u << bitCurrent()); }

    /**
     * Value to write on entering the barrier: clear current, set next.
     * Call consumeRelease() after the spin observes release.
     */
    u8
    enterValue(u8 oldReg) const
    {
        u8 value = oldReg;
        value &= ~u8(1u << bitCurrent());
        value |= u8(1u << bitNext());
        return value;
    }

    /** True once the OR shows every participant entered. */
    bool
    released(u8 orValue) const
    {
        return (orValue & (1u << bitCurrent())) == 0;
    }

    /** Swap current/next roles for the next use of the barrier. */
    void consumeRelease() { phase_ ^= 1; }

    u32 barrierId() const { return id_; }

  private:
    u32 bitCurrent() const { return 2 * id_ + phase_; }
    u32 bitNext() const { return 2 * id_ + (phase_ ^ 1); }

    u32 id_;
    u32 phase_ = 0;
};

} // namespace cyclops::arch

#endif // CYCLOPS_ARCH_BARRIER_SPR_H
