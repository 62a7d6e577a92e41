/**
 * @file
 * The Cyclops chip: the top-level simulation object.
 *
 * Owns the flat functional memory image, the timing fabric (caches,
 * banks, FPUs, I-caches, barrier network), the off-chip DMA memory,
 * and the cycle engine that drives up to 128 execution units. The two
 * frontends (ISA thread units and execution-driven guest units) plug
 * in through the Unit interface.
 */

#ifndef CYCLOPS_ARCH_CHIP_H
#define CYCLOPS_ARCH_CHIP_H

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "arch/barrier_spr.h"
#include "arch/fpu.h"
#include "arch/icache.h"
#include "arch/interest_group.h"
#include "arch/memsys.h"
#include "arch/offchip.h"
#include "arch/profiler.h"
#include "arch/unit.h"
#include "common/bitops.h"
#include "common/config.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "common/trace.h"
#include "isa/encoding.h"
#include "isa/isa.h"
#include "isa/program.h"

namespace cyclops::arch
{

/** Why Chip::run returned. */
enum class RunExitReason : u8 {
    AllHalted,  ///< every activated unit executed its halt
    CycleLimit, ///< maxCycles elapsed
    Watchdog,   ///< no unit made forward progress for watchdogCycles
    Signal,     ///< requestRunStop() was called (SIGINT/SIGTERM/alarm)
    FabricFailure, ///< remote access abandoned: fabric retries exhausted
};

/** Display name of @p reason ("allHalted", "watchdog", ...). */
const char *runExitName(RunExitReason reason);

/**
 * Result of Chip::run. Implicitly comparable against RunExitReason so
 * the historical `run() == RunExit::AllHalted` idiom still compiles:
 * RunExit::AllHalted and friends are static constants of the reason
 * enum, and operator== compares the reason field.
 */
struct RunExit
{
    static constexpr RunExitReason AllHalted = RunExitReason::AllHalted;
    static constexpr RunExitReason CycleLimit = RunExitReason::CycleLimit;
    static constexpr RunExitReason Watchdog = RunExitReason::Watchdog;
    static constexpr RunExitReason Signal = RunExitReason::Signal;
    static constexpr RunExitReason FabricFailure =
        RunExitReason::FabricFailure;

    RunExitReason reason = RunExitReason::AllHalted;
    Cycle at = 0;        ///< chip time when run() returned
    int signal = 0;      ///< host signal number for Reason::Signal
    std::string diagnostic; ///< per-TU state dump for Reason::Watchdog

    RunExit() = default;
    RunExit(RunExitReason r, Cycle when) : reason(r), at(when) {}

    friend bool
    operator==(const RunExit &e, RunExitReason r)
    {
        return e.reason == r;
    }
    friend bool
    operator==(RunExitReason r, const RunExit &e)
    {
        return e.reason == r;
    }
    friend bool
    operator!=(const RunExit &e, RunExitReason r)
    {
        return e.reason != r;
    }
    friend bool
    operator!=(RunExitReason r, const RunExit &e)
    {
        return e.reason != r;
    }
};

/**
 * Ask every running Chip on this host to stop at its next service
 * point (~1 K cycles); run() then returns RunExit::Signal carrying
 * @p sig. Async-signal-safe — call it from SIGINT/SIGTERM handlers.
 */
void requestRunStop(int sig);

/** Clear a pending stop request (call before reusing the process). */
void clearRunStop();

/** True if a stop has been requested and not yet cleared. */
bool runStopRequested();

/**
 * One predecoded text word: what ThreadUnit::issue() needs, derived
 * once from the instruction and its isa::meta entry.
 *
 * The opcode is the execution kind: issue() switches on it once. The
 * load and store variants share one case each, steered by memBytes
 * and the flags below; the FP opcodes carry their FPU port.
 *
 * The hazard list holds the registers issue waits on, in scoreboard
 * order ra, ra+1, rb, rb+1, rd, rd+1 (the +1 entries only for
 * even/odd pairs), with r0 and repeats dropped. Dropping them keeps
 * the stall attribution exact: r0 is never busy, a repeat has the same
 * ready time as its first occurrence, and the hazard check takes a
 * strict maximum, so of equally late registers the first is charged.
 */
struct DecodedInstr
{
    static constexpr unsigned kMaxHazards = 6;

    /** flags bits. */
    static constexpr u8 kIndexed = 1; ///< ea = ra + rb (lwx, ldx, ...)
    static constexpr u8 kSignExt = 2; ///< lb/lh: sign-extend the value
    static constexpr u8 kPairRd = 4;  ///< rd names an even/odd pair

    isa::Opcode op = isa::Opcode::Nop;
    u8 rd = 0;
    u8 ra = 0;
    u8 rb = 0;
    s32 imm = 0;
    u8 memBytes = 0; ///< access size of loads, stores and atomics
    u8 flags = 0;
    FpuOp port = FpuOp::Add; ///< FPU port of FP opcodes
    u8 numHazards = 0;
    std::array<u8, kMaxHazards> hazards{};
};

/** Predecode @p instr (Chip::loadProgram does this for every word). */
DecodedInstr predecode(const isa::Instr &instr);

/**
 * One data reference decoded once: the remote-window test, the
 * interest-group route and the size, alignment and bounds checks. The
 * same decode feeds the functional copy (Chip::load/store) and the
 * timing path (Chip::loadTimed/storeTimed/dmem).
 *
 * A remote reference (route == null) names the target chip and the
 * bytes in that chip's window: a load reads them at issue time (the
 * conservative-epoch snapshot), and an untimed store (Chip::memWrite)
 * writes them directly.
 */
struct MemRef
{
    u8 *host = nullptr; ///< storage of the bytes (the target's, if remote)
    const MemSystem::RouteEntry *route = nullptr; ///< null if remote
    Addr ea = 0;
    PhysAddr pa = 0; ///< physical address (local references)
    u8 bytes = 0;
    u8 chip = 0; ///< target chip of a remote reference

    bool remote() const { return route == nullptr; }
};

/** Copy the low @p bytes (1, 2, 4 or 8) of @p value to @p host. */
inline void
storeBytes(u8 *host, u64 value, u8 bytes)
{
    // Fixed-size copies for the word and doubleword cases compile to
    // single moves.
    switch (bytes) {
      case 8:
        std::memcpy(host, &value, 8);
        break;
      case 4: {
        const u32 word = u32(value);
        std::memcpy(host, &word, 4);
        break;
      }
      default:
        std::memcpy(host, &value, bytes);
    }
}

/**
 * Hook a multi-chip System (arch/system.h) installs on every member
 * Chip to service remote-window references. Chip::decodeMem checks a
 * remote reference like a local one; the timed load or store then
 * reaches the port in one call, which injects it into the fabric.
 */
class RemotePort
{
  public:
    virtual ~RemotePort() = default;

    /**
     * Fabric timing of one checked remote reference. A store carries
     * its @p value, posted to land at a fabric epoch boundary; a load
     * or prefetch charges the round trip (its value was read from
     * ref.host at issue time). Atomics never get here.
     */
    virtual MemTiming remoteAccess(u32 srcChip, ThreadId tid, Cycle now,
                                   const MemRef &ref, MemKind kind,
                                   u64 value) = 0;
};

/** One Cyclops chip. */
class Chip
{
  public:
    explicit Chip(const ChipConfig &cfg = ChipConfig{});

    const ChipConfig &config() const { return cfg_; }
    StatGroup &stats() { return stats_; }
    Cycle now() const { return now_; }

    // --- Observability --------------------------------------------------------

    /** Per-chip event tracer (configured from ChipConfig::obs). */
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    /** Epoch sampler of all registered scalar statistics. */
    const EpochSampler &sampler() const { return sampler_; }

    /** PC-sampling profiler (enabled by ChipConfig::obs.profInterval). */
    const Profiler &profiler() const { return profiler_; }

    /**
     * Cycle attribution of one TU: every cycle between the unit's
     * first and last activity is charged to exactly one category;
     * the remainder of chip time (before spawn, after halt) is sleep.
     */
    CycleBreakdown attribution(ThreadId tid) const;

    /** Summed attribution over the TUs of quad @p quad. */
    CycleBreakdown quadAttribution(u32 quad) const;

    /** Summed attribution over every TU on the chip. */
    CycleBreakdown chipAttribution() const;

    /**
     * Write the configured observability outputs (trace JSON, stats
     * JSON, series CSV) to ChipConfig::obs paths; no-op when none are
     * set. Call after run().
     */
    void writeObservability();

    // --- Functional memory --------------------------------------------------

    /**
     * Read @p bytes (1..8, naturally aligned) at effective address
     * @p ea on behalf of thread @p tid, with no simulated time. Handles
     * scratchpad windows; a remote-window address reads the target
     * chip's window.
     */
    u64 memRead(Addr ea, u8 bytes, ThreadId tid);

    /**
     * Write counterpart of memRead(). A remote-window address writes
     * the target chip's window directly: an untimed write bypasses the
     * fabric (setup and verification, like writePhys).
     */
    void memWrite(Addr ea, u8 bytes, u64 value, ThreadId tid);

    /**
     * Decode the data reference of @p bytes at @p ea by thread @p tid
     * once, for load()/store() and the timed accesses alike. Throws
     * GuestError on a misaligned, out-of-range or unbacked scratchpad
     * reference, and on a remote reference to a chip outside the
     * system or to this chip; a size other than 1, 2, 4 or 8 panics.
     */
    [[gnu::always_inline]] MemRef
    decodeMem(Addr ea, u8 bytes, ThreadId tid)
    {
        if (remote_ && isRemoteEa(ea)) [[unlikely]]
            return decodeRemote(ea, bytes, tid);
        const MemSystem::RouteEntry &route =
            memsys_.routeEntry(igField(ea));
        const PhysAddr pa = igPhys(ea);
        // The common case inline: an aligned power-of-two access to
        // available DRAM. Scratchpad windows and every error go to
        // decodeSlow(): a size other than 1, 2, 4 or 8 panics there,
        // and guest errors keep their original order.
        if (route.cls == IgClass::Scratch || !isPow2(bytes) ||
            (pa & (bytes - 1u)) != 0 ||
            pa + bytes > memsys_.availableMemBytes()) [[unlikely]]
            return decodeSlow(ea, bytes, tid);
        // Start loading the next host line of the reference's stream:
        // a chip's threads interleave more streams than the host's
        // hardware prefetcher follows. (A prefetch never faults; the
        // clamp keeps the pointer inside the array.)
        __builtin_prefetch(dram_.data() +
                           std::min(size_t(pa) + 64, dram_.size()));
        return MemRef{&dram_[pa], &route, ea, pa, bytes};
    }

    /** decodeMem() of a 4-byte atomic: a remote one is a guest error. */
    MemRef
    decodeAtomic(Addr ea, ThreadId tid)
    {
        const MemRef ref = decodeMem(ea, 4, tid);
        if (ref.remote()) [[unlikely]]
            remoteAtomic(ref, tid);
        return ref;
    }

    /** Functional read of a decoded reference. */
    static u64
    load(const MemRef &ref)
    {
        // Fixed-size copies for the word and doubleword cases compile
        // to single moves; on the little-endian host they yield the
        // same value as the variable-size copy into a zeroed u64.
        switch (ref.bytes) {
          case 8: {
            u64 value;
            std::memcpy(&value, ref.host, 8);
            return value;
          }
          case 4: {
            u32 value;
            std::memcpy(&value, ref.host, 4);
            return value;
          }
          default: {
            u64 value = 0;
            std::memcpy(&value, ref.host, ref.bytes);
            return value;
          }
        }
    }

    /** Functional write of a decoded reference. */
    static void
    store(const MemRef &ref, u64 value)
    {
        storeBytes(ref.host, value, ref.bytes);
    }

    /** Raw access to the physical memory image (loader, tests). */
    void writePhys(PhysAddr addr, const void *data, u32 bytes);
    void readPhys(PhysAddr addr, void *data, u32 bytes) const;

    // --- Multi-chip (arch/system.h) -------------------------------------------

    /**
     * Attach the remote port that services remote-window references
     * and assign this chip's identity (the CHIPID/NCHIPS SPRs).
     * @p windows holds each chip's window storage (hostPhys of the
     * window base), indexed by chip id. Installed by arch::System;
     * standalone chips keep id 0 of 1 and route the whole 24-bit space
     * locally.
     */
    void
    attachRemote(RemotePort *port, u32 chipId, std::vector<u8 *> windows)
    {
        remote_ = port;
        chipId_ = chipId;
        numChips_ = u32(windows.size());
        windows_ = std::move(windows);
    }

    /** Host storage of physical address @p addr (fatal past memory). */
    u8 *hostPhys(PhysAddr addr);

    u32 chipId() const { return chipId_; }
    u32 numChips() const { return numChips_; }

    // --- Program loading (ISA frontend) ---------------------------------------

    /**
     * Copy a program image into memory and predecode its text. Only
     * one program may be resident (the paper's kernel is single-user,
     * single-program).
     */
    void loadProgram(const isa::Program &program);

    /**
     * Predecoded instruction at @p pc; a guest crash outside the text
     * section or at a misaligned PC.
     */
    const DecodedInstr &
    decodedAt(PhysAddr pc) const
    {
        // pc < textBase wraps to an offset far above any text size.
        const PhysAddr offset = pc - program_.textBase;
        if (offset >= program_.textBytes() || pc % 4 != 0) [[unlikely]]
            badPc(pc);
        return decoded_[offset / 4];
    }

    const isa::Program &program() const { return program_; }

    // --- Units and the cycle engine ----------------------------------------

    /** Install the execution unit for hardware thread @p tid. */
    void setUnit(ThreadId tid, std::unique_ptr<Unit> unit);

    Unit *unit(ThreadId tid) { return units_[tid].get(); }
    const Unit *unit(ThreadId tid) const { return units_[tid].get(); }

    /** Begin executing @p tid at cycle max(now, when). */
    void activate(ThreadId tid, Cycle when = 0);

    /**
     * Run until every activated unit halts or @p maxCycles elapse.
     * May be called repeatedly (time continues monotonically).
     */
    RunExit run(Cycle maxCycles = kCycleNever);

    /**
     * run() without building a RunExit: advance until every activated
     * unit halts or cycle @p limit, and return why. exitOf() turns the
     * reason into the RunExit run() would have returned (the signal
     * number, the watchdog diagnostic); call it before running again.
     * arch::System drives its chips through this, once per epoch.
     */
    RunExitReason runTo(Cycle limit);

    /** The RunExit of the runTo() call that just returned @p reason. */
    RunExit exitOf(RunExitReason reason) const;

    /** Number of activated, not-yet-halted units. */
    u32 liveUnits() const { return liveUnits_; }

    // --- Shared hardware reachable from units ---------------------------------

    MemSystem &memsys() { return memsys_; }
    BarrierSpr &barrier() { return barrier_; }
    OffChipMemory &offchip() { return offchip_; }
    Fpu &fpuOf(ThreadId tid) { return fpus_[tid >> quadShift_]; }
    ICache &
    icacheOf(ThreadId tid)
    {
        return icaches_[tid / (cfg_.threadsPerQuad * cfg_.quadsPerICache)];
    }

    /**
     * Timed load of a decoded reference: the value goes to @p value,
     * the timing is returned. A remote reference reaches the multi-chip
     * fabric in one RemotePort call.
     */
    MemTiming
    loadTimed(Cycle now, ThreadId tid, const MemRef &ref, u64 *value)
    {
        *value = load(ref);
        if (ref.remote()) [[unlikely]]
            return remote_->remoteAccess(chipId_, tid, now, ref,
                                         MemKind::Load, 0);
        return memsys_.accessDecoded(now, tid, *ref.route, ref.ea, ref.pa,
                                     ref.bytes, MemKind::Load);
    }

    /** Timed store of @p value through a decoded reference. */
    MemTiming
    storeTimed(Cycle now, ThreadId tid, const MemRef &ref, u64 value)
    {
        if (ref.remote()) [[unlikely]]
            return remote_->remoteAccess(chipId_, tid, now, ref,
                                         MemKind::Store, value);
        store(ref, value);
        return memsys_.accessDecoded(now, tid, *ref.route, ref.ea, ref.pa,
                                     ref.bytes, MemKind::Store);
    }

    /**
     * One data-memory timing access with no value (prefetch): remote-
     * window addresses go to the multi-chip fabric, everything else to
     * the local memory system.
     */
    MemTiming
    dmem(Cycle now, ThreadId tid, Addr ea, u8 bytes, MemKind kind)
    {
        if (remote_ && isRemoteEa(ea)) [[unlikely]]
            return remote_->remoteAccess(chipId_, tid, now,
                                         decodeRemote(ea, bytes, tid),
                                         kind, 0);
        return memsys_.access(now, tid, ea, bytes, kind);
    }

    /** Timing of a local reference decoded by decodeAtomic(). */
    MemTiming
    dmem(Cycle now, ThreadId tid, const MemRef &ref, MemKind kind)
    {
        return memsys_.accessDecoded(now, tid, *ref.route, ref.ea, ref.pa,
                                     ref.bytes, kind);
    }

    /** Value of special purpose register @p spr as read by @p tid. */
    u32 readSpr(ThreadId tid, u32 spr);

    /** Write @p spr; only the barrier SPR is software-writable. */
    void writeSpr(ThreadId tid, u32 spr, u32 value);

    /** Kernel trap entry (console output, thread exit). */
    void trap(ThreadId tid, u32 code, u32 arg);

    /** Console output accumulated by traps. */
    const std::string &console() const { return console_; }
    void clearConsole() { console_.clear(); }

    // --- Fault model (paper section 5) ----------------------------------------

    /** Fail a memory bank: contiguous remap, MEMSZ shrinks. */
    void failBank(BankId id);

    /**
     * Disable a quad (e.g. its FPU broke): its threads must not be
     * used and its cache leaves the interest-group scrambling.
     */
    void disableQuad(u32 quad);

    /** True if the quad is operational. */
    bool quadEnabled(u32 quad) const { return quadEnabled_[quad]; }

    /**
     * True if TU @p tid can execute at all: the TU itself, its quad
     * and its I-cache are alive. A TU with a dead FPU or D-cache is
     * still alive (FP issue or scratch access faults the guest).
     */
    bool tuAlive(ThreadId tid) const { return tuAlive_[tid]; }

    /**
     * True if the kernel should schedule work on @p tid: alive and
     * its quad's FPU works, so any workload runs unmodified.
     */
    bool tuSchedulable(ThreadId tid) const { return tuSchedulable_[tid]; }

    /** True if quad @p quad's FPU is operational. */
    bool fpuEnabled(u32 quad) const { return fpuEnabled_[quad]; }

    // --- Aggregate statistics ----------------------------------------------------

    /** Sum of run cycles over all units. */
    u64 totalRunCycles() const;

    /** Sum of stall cycles over all units. */
    u64 totalStallCycles() const;

    /** Sum of instructions over all units. */
    u64 totalInstructions() const;

  private:
    static constexpr u32 kWheelBits = 10;
    static constexpr u32 kWheelSize = 1u << kWheelBits;
    static constexpr u32 kWheelWords = kWheelSize / 64;

    void schedule(ThreadId tid, Cycle when);
    [[gnu::noinline]] void scheduleFar(ThreadId tid, Cycle when);

    /** Append @p tid to the slot of @p when, in (now_, now_ + kWheelSize). */
    void
    pushWheel(ThreadId tid, Cycle when)
    {
        const u32 slot = u32(when) & (kWheelSize - 1);
        WheelSlot &s = wheel_[slot];
        nextInSlot_[tid] = kNoUnit;
        if (s.head == kNoUnit) {
            s.head = tid;
            wheelBits_[slot >> 6] |= 1ull << (slot & 63);
        } else {
            nextInSlot_[s.tail] = tid;
        }
        s.tail = tid;
        ++inWheel_;
    }

    Cycle nextWheelEvent() const;
    MemRef decodeSlow(Addr ea, u8 bytes, ThreadId tid);

    /** decodeMem() of a remote-window address (a System is attached). */
    MemRef
    decodeRemote(Addr ea, u8 bytes, ThreadId tid) const
    {
        const u32 dst = remoteChipOf(ea);
        const PhysAddr offset = remoteOffsetOf(ea);
        if (bytes == 0 || bytes > 8 || !isPow2(bytes) || dst >= numChips_ ||
            dst == chipId_ || (offset & (bytes - 1u)) != 0) [[unlikely]]
            badRemote(ea, bytes, tid);
        return MemRef{windows_[dst] + offset, nullptr, ea, 0, bytes,
                      u8(dst)};
    }

    [[noreturn, gnu::cold]] void badRemote(Addr ea, u8 bytes,
                                           ThreadId tid) const;
    [[noreturn, gnu::cold]] void remoteAtomic(const MemRef &ref,
                                              ThreadId tid) const;
    [[noreturn, gnu::cold]] void badPc(PhysAddr pc) const;

    void samplePcs();
    void applyFaultMap();
    void recomputeAlive();
    u64 progressSum() const;
    std::string watchdogDump() const;

    ChipConfig cfg_;
    u32 quadShift_ = 0; ///< log2(threadsPerQuad): tid -> quad
    StatGroup stats_;
    Tracer tracer_;
    EpochSampler sampler_;
    bool sampling_ = false;
    Profiler profiler_;
    bool profiling_ = false;
    Cycle profNext_ = kCycleNever;
    std::vector<u8> active_; ///< activated and not yet halted, per TU

    std::vector<u8> dram_;
    std::vector<std::vector<u8>> scratch_; ///< per-cache scratch storage

    MemSystem memsys_;
    std::vector<Fpu> fpus_;
    std::vector<ICache> icaches_;
    BarrierSpr barrier_;
    OffChipMemory offchip_;

    isa::Program program_;
    std::vector<DecodedInstr> decoded_;
    bool programLoaded_ = false;

    std::vector<std::unique_ptr<Unit>> units_;
    std::vector<bool> quadEnabled_;
    std::vector<bool> tuEnabled_;
    std::vector<bool> fpuEnabled_;
    std::vector<bool> icEnabled_;
    std::vector<bool> tuAlive_;
    std::vector<bool> tuSchedulable_;

    // Deadlock watchdog (serviced every kServiceInterval cycles; state
    // persists across run() calls so single-stepping drivers still arm
    // it). lastProgressCycle_ tracks the last service point at which
    // the chip-wide progress-event sum advanced.
    static constexpr Cycle kServiceInterval = 1024;
    Cycle svcNext_ = kServiceInterval;
    int stopSignal_ = 0; ///< signal of the last Signal exit
    u64 lastProgressSum_ = 0;
    Cycle lastProgressCycle_ = 0;

    // Cycle engine: timing wheel + far-future heap. Each wheel slot is
    // a FIFO list threaded through nextInSlot_ (a unit waits in at
    // most one slot), so pushing and gathering allocate nothing. A
    // one-bit-per-slot occupancy bitmap makes the idle fast-forward a
    // countr_zero scan over 16 words instead of a walk of 1024 slots.
    static constexpr ThreadId kNoUnit = ~ThreadId(0);
    struct WheelSlot
    {
        ThreadId head = kNoUnit; ///< first unit due, kNoUnit if empty
        ThreadId tail = kNoUnit; ///< last unit due
    };
    Cycle now_ = 0;
    u32 liveUnits_ = 0;
    std::array<WheelSlot, kWheelSize> wheel_{};
    std::array<u64, kWheelWords> wheelBits_{}; ///< slot-occupancy bitmap
    std::vector<ThreadId> nextInSlot_; ///< per unit: next in its slot
    using FarEntry = std::pair<Cycle, ThreadId>;
    std::priority_queue<FarEntry, std::vector<FarEntry>,
                        std::greater<FarEntry>>
        far_;
    u32 inWheel_ = 0;
    std::vector<ThreadId> due_; ///< this cycle's due units, numThreads slots

    std::string console_;

    // Multi-chip remote-window port (null on standalone chips) and
    // every chip's window storage, by chip id.
    RemotePort *remote_ = nullptr;
    u32 chipId_ = 0;
    u32 numChips_ = 1;
    std::vector<u8 *> windows_;

    Counter cycles_;
    Counter trapsServed_;
};

} // namespace cyclops::arch

#endif // CYCLOPS_ARCH_CHIP_H
