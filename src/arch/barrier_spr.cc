#include "arch/barrier_spr.h"

#include "common/log.h"

namespace cyclops::arch
{

void
BarrierSpr::init(u32 numThreads, StatGroup *stats)
{
    regs_.assign(numThreads, 0);
    bitCounts_.assign(8, 0);
    orValue_ = 0;
    if (stats) {
        stats->addCounter("barrier.sprWrites", &writes_);
        stats->addCounter("barrier.releases", &releases_);
    }
}

void
BarrierSpr::setAlive(const std::vector<u8> &alive)
{
    alive_ = alive;
    if (alive_.empty())
        return;
    // Zero dead threads' registers via write() so the incremental
    // per-bit counts stay consistent, then drop them from the OR.
    for (ThreadId tid = 0; tid < regs_.size(); ++tid)
        if (!alive_[tid] && regs_[tid] != 0)
            write(tid, 0);
}

void
BarrierSpr::write(ThreadId tid, u8 value)
{
    if (tid >= regs_.size())
        panic("BarrierSpr::write from unknown thread %u", tid);
    if (!alive_.empty() && !alive_[tid] && value != 0)
        return;
    const u8 old = regs_[tid];
    if (old == value)
        return;
    regs_[tid] = value;
    ++writes_;
    // Incrementally maintain per-bit population counts so reads are O(1).
    for (u32 bit = 0; bit < 8; ++bit) {
        const u8 mask = u8(1u << bit);
        if ((old & mask) && !(value & mask)) {
            if (--bitCounts_[bit] == 0) {
                orValue_ &= ~mask;
                // The last participant left this bit: the barrier
                // using it as its current bit just released.
                ++releases_;
            }
        } else if (!(old & mask) && (value & mask)) {
            if (bitCounts_[bit]++ == 0)
                orValue_ |= mask;
        }
    }
}

void
BarrierSpr::recomputeOr()
{
    orValue_ = 0;
    for (u8 reg : regs_)
        orValue_ |= reg;
}

} // namespace cyclops::arch
