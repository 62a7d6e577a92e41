#include "exec/engine.h"

#include "common/log.h"

namespace cyclops::exec
{

GuestEngine::GuestEngine(arch::Chip &chip, kernel::AllocPolicy policy)
    : chip_(chip)
{
    order_ = kernel::threadOrder(chip, policy);
    // The whole embedded memory minus a small boot region is heap; the
    // exec frontend has no program image.
    heap_.init(4096, chip.memsys().availableMemBytes());
}

void
GuestEngine::spawn(u32 count, const GuestFactory &factory)
{
    if (count == 0 || count > order_.size())
        fatal("cannot spawn %u guest threads (%zu usable)", count,
              order_.size());

    std::vector<GuestUnit *> units;
    units.reserve(count);
    for (u32 i = 0; i < count; ++i) {
        const ThreadId tid = order_[i];
        auto unit = std::make_unique<GuestUnit>(tid, chip_, i);
        GuestUnit *raw = unit.get();
        chip_.setUnit(tid, std::move(unit));
        units.push_back(raw);
    }
    // Arm every hardware barrier before any guest instruction runs:
    // the wired-OR protocol requires all participants' current-cycle
    // bits to be set before the first entry.
    for (GuestUnit *unit : units)
        unit->armHwBarriers();
    for (u32 i = 0; i < count; ++i) {
        auto ctx = std::make_unique<GuestCtx>(*units[i], i, count);
        units[i]->start(factory(*ctx));
        ctxs_.push_back(std::move(ctx));
        chip_.activate(units[i]->tid());
    }
    spawned_ += count;
}

arch::RunExit
GuestEngine::run(Cycle maxCycles)
{
    if (spawned_ == 0)
        fatal("GuestEngine::run with no spawned guests");
    return chip_.run(maxCycles);
}

} // namespace cyclops::exec
