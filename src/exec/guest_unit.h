/**
 * @file
 * The execution-driven unit: adapts a guest coroutine to the cycle
 * engine's Unit interface, charging every awaited micro-op through the
 * shared timing fabric.
 */

#ifndef CYCLOPS_EXEC_GUEST_UNIT_H
#define CYCLOPS_EXEC_GUEST_UNIT_H

#include <array>

#include "arch/barrier_spr.h"
#include "arch/chip.h"
#include "arch/unit.h"
#include "exec/guest.h"

namespace cyclops::exec
{

/** One hardware thread running guest coroutine code. */
class GuestUnit : public arch::Unit
{
  public:
    GuestUnit(ThreadId tid, arch::Chip &chip, u32 softIdx);

    /** Install the top-level coroutine (before activation). */
    void start(GuestTask task);

    Cycle tick(Cycle now) override;

    arch::Chip &chip() { return chip_; }
    u32 softIdx() const { return softIdx_; }

    /** Arm all hardware barriers for this participant (engine calls). */
    void armHwBarriers();

    // Called by OpAwait::await_suspend.
    void
    post(std::span<MicroOp> ops, std::coroutine_handle<> self)
    {
        if (pending_) [[unlikely]]
            postTwice();
        ops_ = ops;
        opIdx_ = 0;
        pending_ = !ops.empty();
        current_ = self;
    }

  private:
    /** Outcome of stepping one micro-op at a given cycle. */
    struct StepResult
    {
        bool done;   ///< op finished (false: re-step at @ref at)
        Cycle at;    ///< next-issue cycle (done) or wake cycle (wait)
    };

    StepResult step(Cycle now, MicroOp &op);
    StepResult stepOther(Cycle now, MicroOp &op);
    StepResult stepHwBarrier(Cycle now, MicroOp &op);
    StepResult stepCentral(Cycle now, MicroOp &op);
    StepResult stepTree(Cycle now, MicroOp &op);

    /** Issue one data-memory load or store: functional + timing. */
    arch::MemTiming issueMem(Cycle now, arch::MemKind kind, Addr ea,
                             u8 bytes, u64 *inout);

    /** Atomic increment of the word at @p ea; *old gets its value. */
    arch::MemTiming fetchAdd(Cycle now, Addr ea, u32 *old);

    /** Wait for a free outstanding-memory slot; false if one is free. */
    bool waitMemSlot(Cycle now, StepResult *wait);

    [[noreturn, gnu::cold]] static void postTwice();

    arch::Chip &chip_;
    u32 softIdx_;

    GuestTask top_;
    std::coroutine_handle<> current_;
    bool started_ = false;

    std::span<MicroOp> ops_;
    size_t opIdx_ = 0;
    bool pending_ = false;

    /**
     * Update the dependence chain: remember what the newest producer
     * was waiting on so a later chain stall charges the right category
     * (and its queueing share, once).
     */
    void
    setChain(Cycle ready, arch::CycleCat cat, u64 queueing)
    {
        if (ready > chainReady_) {
            chainReady_ = ready;
            chainCat_ = cat;
            chainQueue_ = queueing;
        }
    }

    Cycle chainReady_ = 0;
    arch::CycleCat chainCat_ = arch::CycleCat::Run;
    u64 chainQueue_ = 0;
    arch::OutstandingMem mem_;

    // Hardware barrier protocol state.
    std::array<arch::HwBarrierProtocol, arch::kNumHwBarriers> hwProto_;
    u8 mySpr_ = 0;

    // Multi-step barrier micro-op state.
    u32 barStage_ = 0;
    u32 barChild_ = 0;
    u64 barScratch_ = 0;
    Cycle barEnterAt_ = 0; ///< entry cycle, for the barrier trace span
};

inline void
OpAwait::await_suspend(std::coroutine_handle<> self) noexcept
{
    unit_.post(ops_, self);
}

} // namespace cyclops::exec

#endif // CYCLOPS_EXEC_GUEST_UNIT_H
