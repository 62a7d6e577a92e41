/**
 * @file
 * One bank of embedded DRAM (timing only; functional data lives in the
 * chip's flat memory image).
 *
 * The unit of access is a 32-byte block served in 6 cycles, so each
 * bank sustains 64 bytes every 12 cycles — with 16 banks that is the
 * paper's 42 GB/s peak at 500 MHz. A request that hits the bank's open
 * row back-to-back ("two consecutive blocks in the same bank") sees a
 * lower *latency* in burst transfer mode; occupancy (bandwidth) is
 * unchanged.
 */

#ifndef CYCLOPS_ARCH_MEMBANK_H
#define CYCLOPS_ARCH_MEMBANK_H

#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"

namespace cyclops::arch
{

/** Result of reserving bank service. */
struct BankGrant
{
    Cycle start = 0;          ///< cycle service begins
    u32 transferCycles = 0;   ///< cycles until the data is delivered
};

/** Timing model of one embedded-DRAM bank. */
class MemBank
{
  public:
    MemBank() = default;

    /** Configure from the chip configuration; registers statistics. */
    void init(BankId id, const ChipConfig &cfg, StatGroup *stats);

    /**
     * Reserve service for @p blocks consecutive 32-byte blocks starting
     * at bank-local address @p bankAddr, requested at @p reqTime.
     *
     * Occupancy is blocks * bankBlockCycles; the returned transfer time
     * is shortened by the burst discount when the open row is hit
     * back-to-back.
     */
    BankGrant reserve(Cycle reqTime, u32 blocks, PhysAddr bankAddr);

    /** Cycle at which the bank next becomes idle. */
    Cycle busyUntil() const { return busyUntil_; }

    /** Total cycles of service performed (for utilization). */
    u64 busyCycles() const { return busyCycles_.value(); }

    /** Number of reserve() calls. */
    u64 accesses() const { return accesses_.value(); }

    /** Requester cycles spent queued behind a busy bank. */
    u64 queueCycles() const { return queueCycles_.value(); }

  private:
    static constexpr PhysAddr kRowBytes = 1024; ///< open-row granularity
    static constexpr Cycle kRowOpenWindow = 8;  ///< idle cycles row stays open

    const ChipConfig *cfg_ = nullptr;
    Cycle busyUntil_ = 0;
    PhysAddr lastRow_ = ~PhysAddr(0);
    PhysAddr nextBlockAddr_ = ~PhysAddr(0);

    Counter accesses_;
    Counter busyCycles_;
    Counter bursts_;
    Counter queueCycles_; ///< requester cycles spent waiting for the bank
};

} // namespace cyclops::arch

#endif // CYCLOPS_ARCH_MEMBANK_H
