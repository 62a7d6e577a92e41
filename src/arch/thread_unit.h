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

/** One hardware thread executing Cyclops machine code. */
class ThreadUnit : public Unit
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
    u32 reg(unsigned index) const { return regs_[index]; }

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
    /** The register (and its ready time) that delays an issue longest. */
    struct Hazard {
        Cycle at = 0;
        unsigned reg = 0;
    };

    /** Issue one instruction; returns the next cycle to run. */
    Cycle issue(Cycle now, const isa::Instr &instr);

    /** Latest-clearing register hazard of @p instr (sources + WAW). */
    Hazard hazardsClearAt(const isa::Instr &instr) const;

    Cycle regReadyAt(unsigned index) const { return ready_[index]; }

    /**
     * Mark @p index ready at @p at, remembering which stall category a
     * dependent instruction waiting on it should charge, and how many
     * of the wait cycles were memory-path queueing (contention).
     */
    void setRegReady(unsigned index, Cycle at,
                     CycleCat producer = CycleCat::Run, u64 queueing = 0);

    Chip &chip_;
    PhysAddr pc_;
    std::array<u32, isa::kNumRegs> regs_{};
    std::array<Cycle, isa::kNumRegs> ready_{};
    std::array<u8, isa::kNumRegs> prodCat_{};  ///< CycleCat per register
    std::array<u64, isa::kNumRegs> prodQueue_{};
    OutstandingMem mem_;
    Pib pib_;
};

} // namespace cyclops::arch

#endif // CYCLOPS_ARCH_THREAD_UNIT_H
