/**
 * @file
 * GuestEngine: spawns guest coroutines onto hardware threads under a
 * kernel allocation policy and runs the chip.
 */

#ifndef CYCLOPS_EXEC_ENGINE_H
#define CYCLOPS_EXEC_ENGINE_H

#include <functional>
#include <memory>
#include <vector>

#include "arch/chip.h"
#include "exec/guest.h"
#include "exec/guest_unit.h"
#include "kernel/heap.h"
#include "kernel/kernel.h"

namespace cyclops::exec
{

/** Factory invoked once per spawned software thread. */
using GuestFactory = std::function<GuestTask(GuestCtx &)>;

/** Runs execution-driven workloads on one chip. */
class GuestEngine
{
  public:
    explicit GuestEngine(
        arch::Chip &chip,
        kernel::AllocPolicy policy = kernel::AllocPolicy::Sequential);

    /**
     * Spawn @p count software threads; @p factory builds each thread's
     * coroutine. Hardware threads are assigned by the policy; all
     * hardware barriers are armed before anything runs.
     */
    void spawn(u32 count, const GuestFactory &factory);

    /** Run until all guests finish or a cycle limit. */
    arch::RunExit run(Cycle maxCycles = kCycleNever);

    /** Heap over the chip's free memory for workload buffers. */
    kernel::Heap &heap() { return heap_; }
    const kernel::Heap &heap() const { return heap_; }

    arch::Chip &chip() { return chip_; }
    const arch::Chip &chip() const { return chip_; }

    u32 usableThreads() const { return u32(order_.size()); }

  private:
    arch::Chip &chip_;
    std::vector<ThreadId> order_;
    kernel::Heap heap_;
    std::vector<std::unique_ptr<GuestCtx>> ctxs_;
    u32 spawned_ = 0;
};

} // namespace cyclops::exec

#endif // CYCLOPS_EXEC_ENGINE_H
