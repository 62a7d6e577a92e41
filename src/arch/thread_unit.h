/**
 * @file
 * The ISA-interpreting thread unit: a simple, single-issue, in-order
 * processor with a register file (64 x 32-bit, pairable for doubles),
 * a program counter, a fixed point ALU and a sequencer.
 *
 * Each thread can issue one instruction per cycle if resources are
 * available and there are no dependences with previous instructions;
 * completion may be out of order (per-register scoreboard). A thread
 * that cannot issue stalls until the blocking resource or operand
 * becomes available; those cycles are accounted as stall cycles.
 */

#ifndef CYCLOPS_ARCH_THREAD_UNIT_H
#define CYCLOPS_ARCH_THREAD_UNIT_H

#include <array>

#include "arch/icache.h"
#include "arch/unit.h"
#include "isa/isa.h"

namespace cyclops::arch
{

class Chip;
struct DecodedInstr;

/** One hardware thread executing Cyclops machine code. */
class ThreadUnit final : public Unit
{
  public:
    /**
     * @param tid   hardware thread id
     * @param chip  owning chip (provides memory, FPU, SPRs, traps)
     * @param entry initial program counter
     */
    ThreadUnit(ThreadId tid, Chip &chip, PhysAddr entry);

    Cycle tick(Cycle now) override;

    /** Architectural register read (r0 is always zero). */
    u32 reg(unsigned index) const { return rf_[index].value; }

    /** Architectural register write (writes to r0 are ignored). */
    void setReg(unsigned index, u32 value);

    /** Read an even/odd pair as a double. */
    double regPair(unsigned even) const;

    /** Write a double into an even/odd pair. */
    void setRegPair(unsigned even, double value);

    PhysAddr pc() const { return pc_; }
    void setPc(PhysAddr pc) { pc_ = pc; }

    bool
    samplePc(PhysAddr *pc) const override
    {
        *pc = pc_;
        return true;
    }

  private:
    /**
     * One architectural register and its scoreboard entry: the cycle
     * its value is ready, and what a dependent instruction waiting on
     * it is charged (the producer's stall category and how many of the
     * wait cycles were memory-path queueing). One record, so a hazard
     * check and the operand read touch the same host cache line.
     */
    struct Reg
    {
        Cycle readyAt = 0;
        u64 prodQueue = 0;
        u32 value = 0;
        u8 prodCat = 0; ///< CycleCat
    };

    /** Issue one instruction; returns the next cycle to run. */
    Cycle issue(Cycle now, const DecodedInstr &d);

    /**
     * Wait for a free outstanding-memory slot: the cycle to retry at,
     * or 0 if a slot is free now.
     */
    Cycle waitMemSlot(Cycle now);

    /**
     * Mark @p index ready at @p at, remembering which stall category a
     * dependent instruction waiting on it should charge, and how many
     * of the wait cycles were memory-path queueing (contention).
     */
    void setRegReady(unsigned index, Cycle at,
                     CycleCat producer = CycleCat::Run, u64 queueing = 0);

    // Per-issue scalars first, next to the Unit counters, so one tick
    // touches few host cache lines besides its operand registers.
    Chip &chip_;
    PhysAddr pc_;
    Pib pib_;
    OutstandingMem mem_;
    std::array<Reg, isa::kNumRegs> rf_{};
};

} // namespace cyclops::arch

#endif // CYCLOPS_ARCH_THREAD_UNIT_H
