#include "arch/chip.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "common/bitops.h"
#include "common/log.h"

namespace cyclops::arch
{

namespace
{
// Signal number of a pending stop request, 0 for none. A plain atomic
// store, so POSIX signal handlers may call requestRunStop() directly.
std::atomic<int> gStopSignal{0};
} // namespace

void
requestRunStop(int sig)
{
    gStopSignal.store(sig, std::memory_order_relaxed);
}

void
clearRunStop()
{
    gStopSignal.store(0, std::memory_order_relaxed);
}

bool
runStopRequested()
{
    return gStopSignal.load(std::memory_order_relaxed) != 0;
}

const char *
runExitName(RunExitReason reason)
{
    switch (reason) {
      case RunExitReason::AllHalted:
        return "allHalted";
      case RunExitReason::CycleLimit:
        return "cycleLimit";
      case RunExitReason::Watchdog:
        return "watchdog";
      case RunExitReason::Signal:
        return "signal";
      case RunExitReason::FabricFailure:
        return "fabricFailure";
    }
    return "?";
}

Chip::Chip(const ChipConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
    quadShift_ = log2i(cfg_.threadsPerQuad);

    dram_.assign(cfg_.memBytes(), 0);
    const u32 scratchBytes =
        cfg_.dcacheScratchWays * (cfg_.dcacheBytes / cfg_.dcacheAssoc);
    scratch_.assign(cfg_.numCaches(), std::vector<u8>(scratchBytes, 0));

    tracer_.configure(cfg_.obs.traceCats, cfg_.obs.traceCapacity);
    memsys_.init(cfg_, &stats_, &tracer_);
    fpus_.resize(cfg_.numFpus());
    for (u32 id = 0; id < cfg_.numFpus(); ++id)
        fpus_[id].init(id, cfg_, &stats_);
    icaches_.resize(cfg_.numICaches());
    for (u32 id = 0; id < cfg_.numICaches(); ++id)
        icaches_[id].init(id, cfg_, &stats_);
    barrier_.init(cfg_.numThreads, &stats_);
    offchip_.init(cfg_, &stats_);

    units_.resize(cfg_.numThreads);
    quadEnabled_.assign(cfg_.numQuads(), true);
    tuEnabled_.assign(cfg_.numThreads, true);
    fpuEnabled_.assign(cfg_.numQuads(), true);
    icEnabled_.assign(cfg_.numICaches(), true);
    applyFaultMap();

    nextInSlot_.assign(cfg_.numThreads, kNoUnit);
    due_.assign(cfg_.numThreads, 0);

    stats_.addCounter("chip.cycles", &cycles_);
    stats_.addCounter("chip.traps", &trapsServed_);

    // Cycle-attribution gauges: chip-wide and per-quad, one per
    // category plus the derived sleep bucket. Gauges are evaluated
    // lazily, so registering them costs nothing during simulation.
    auto catOf = [](const CycleBreakdown &b, u32 i) {
        return i < kNumCycleCats ? b.cat[i] : b.sleep;
    };
    for (u32 c = 0; c <= kNumCycleCats; ++c) {
        stats_.addGauge(std::string("attr.") + kCycleCatNames[c],
                        [this, catOf, c] {
                            return catOf(chipAttribution(), c);
                        });
    }
    for (u32 q = 0; q < cfg_.numQuads(); ++q) {
        for (u32 c = 0; c <= kNumCycleCats; ++c) {
            stats_.addGauge(
                strprintf("quad%u.attr.%s", q, kCycleCatNames[c]),
                [this, catOf, q, c] {
                    return catOf(quadAttribution(q), c);
                });
        }
    }

    sampler_.configure(&stats_, cfg_.obs.statsInterval);
    sampling_ = sampler_.enabled();

    profiler_.configure(cfg_.obs.profInterval, cfg_.numThreads);
    profiling_ = profiler_.enabled();
    active_.assign(cfg_.numThreads, 0);
    if (profiling_)
        profNext_ = profiler_.interval();
    // The bank heatmap rides along with any profiling: it must cover
    // the whole run for its row sums to match the bank access totals.
    if (profiling_ || !cfg_.obs.profOut.empty())
        memsys_.enableHeatmap();
}

// --- Functional memory ------------------------------------------------------

namespace
{

/**
 * Prefetch the first four host cache lines of a unit: the vtable
 * pointer, the Unit counters and, for a ThreadUnit, the PC, PIB and
 * outstanding-memory set that every tick reads first.
 */
inline void
prefetchHotState(const Unit *unit)
{
    const char *base = reinterpret_cast<const char *>(unit);
    for (u32 offset = 0; offset < 256; offset += 64)
        __builtin_prefetch(base + offset);
}

/** The one size check of local and remote references alike. */
inline void
checkAccessSize(u8 bytes)
{
    if (bytes == 0 || bytes > 8 || !isPow2(bytes))
        panic("memory access of %u bytes", bytes);
}

} // namespace

MemRef
Chip::decodeSlow(Addr ea, u8 bytes, ThreadId tid)
{
    // Sizes are 1, 2, 4 or 8 (checked first), so alignment is a mask.
    checkAccessSize(bytes);
    const u32 alignMask = bytes - 1u;
    const MemSystem::RouteEntry &ig = memsys_.routeEntry(igField(ea));
    const PhysAddr pa = igPhys(ea);
    u8 *host;
    if (ig.cls == IgClass::Scratch) {
        const CacheId cache = ig.index & (u32(scratch_.size()) - 1);
        if (!memsys_.cacheEnabled(cache))
            guestCheck("scratchpad access to disabled cache %u "
                       "(thread %u)", cache, tid);
        auto &mem = scratch_[cache];
        if (mem.empty())
            guestCheck("scratchpad access to cache %u with no "
                       "partitioned ways (thread %u)", cache, tid);
        // The partitioned scratch size is ways * 2 KB and need not be a
        // power of two (e.g. 3 ways = 6 KB), so the window wrap must be
        // a real modulo; pow2 sizes keep the single-cycle mask.
        const u32 size = u32(mem.size());
        const u32 offset =
            isPow2(size) ? (pa & (size - 1)) : (pa % size);
        if ((offset & alignMask) != 0)
            guestCheck("misaligned scratch access at 0x%08x", ea);
        host = &mem[offset];
    } else {
        if ((pa & alignMask) != 0)
            guestCheck("misaligned %u-byte access at 0x%08x (thread %u)",
                       bytes, ea, tid);
        if (pa + bytes > memsys_.availableMemBytes())
            guestCrash("access at 0x%06x beyond available memory (%u KB) "
                       "(thread %u)", pa,
                       memsys_.availableMemBytes() / 1024, tid);
        host = &dram_[pa];
    }
    return MemRef{host, &ig, ea, pa, bytes};
}

void
Chip::badRemote(Addr ea, u8 bytes, ThreadId tid) const
{
    // The checks of decodeRemote(), in order, with their diagnostics.
    checkAccessSize(bytes);
    const u32 dst = remoteChipOf(ea);
    if (dst >= numChips_)
        guestCheck("remote window addresses chip %u of a %u-chip "
                   "system (chip %u thread %u, ea 0x%08x)",
                   dst, numChips_, chipId_, tid, ea);
    if (dst == chipId_)
        guestCheck("remote window targets the local chip %u "
                   "(thread %u, ea 0x%08x)", chipId_, tid, ea);
    guestCheck("misaligned %u-byte remote access at 0x%08x "
               "(chip %u thread %u)", bytes, ea, chipId_, tid);
}

void
Chip::remoteAtomic(const MemRef &ref, ThreadId tid) const
{
    guestCheck("remote atomics are not supported (chip %u "
               "thread %u, ea 0x%08x)", chipId_, tid, ref.ea);
}

u64
Chip::memRead(Addr ea, u8 bytes, ThreadId tid)
{
    return load(decodeMem(ea, bytes, tid));
}

void
Chip::memWrite(Addr ea, u8 bytes, u64 value, ThreadId tid)
{
    store(decodeMem(ea, bytes, tid), value);
}

u8 *
Chip::hostPhys(PhysAddr addr)
{
    if (addr >= dram_.size())
        fatal("hostPhys beyond memory: 0x%06x", addr);
    return &dram_[addr];
}

void
Chip::writePhys(PhysAddr addr, const void *data, u32 bytes)
{
    if (addr + bytes > dram_.size())
        fatal("writePhys beyond memory: 0x%06x + %u", addr, bytes);
    std::memcpy(&dram_[addr], data, bytes);
}

void
Chip::readPhys(PhysAddr addr, void *data, u32 bytes) const
{
    if (addr + bytes > dram_.size())
        fatal("readPhys beyond memory: 0x%06x + %u", addr, bytes);
    std::memcpy(data, &dram_[addr], bytes);
}

// --- Program loading -----------------------------------------------------------

void
Chip::loadProgram(const isa::Program &program)
{
    if (programLoaded_)
        fatal("a program is already resident (single-program kernel)");
    programLoaded_ = true;
    program_ = program;

    if (!program.text.empty())
        writePhys(program.textBase, program.text.data(),
                  program.textBytes());
    if (!program.data.empty())
        writePhys(program.dataBase, program.data.data(),
                  u32(program.data.size()));

    profiler_.setTextRange(program.textBase, program.textBytes());

    decoded_.resize(program.text.size());
    for (size_t i = 0; i < program.text.size(); ++i) {
        isa::Instr instr;
        if (!isa::decode(program.text[i], &instr))
            fatal("undecodable instruction word 0x%08x at 0x%06x",
                  program.text[i],
                  program.textBase + u32(i) * 4);
        decoded_[i] = predecode(instr);
    }
}

DecodedInstr
predecode(const isa::Instr &instr)
{
    using isa::Opcode;
    using isa::UnitClass;
    const isa::InstrMeta &m = isa::meta(instr.op);
    DecodedInstr d;
    d.op = instr.op;
    d.rd = instr.rd;
    d.ra = instr.ra;
    d.rb = instr.rb;
    d.imm = instr.imm;
    d.memBytes = m.memBytes;
    // Atomics address through ra alone (rb is the operand); the
    // indexed loads/stores (lwx/ldx/...) add ra + rb.
    if (m.format == isa::Format::R &&
        (m.unit == UnitClass::Load || m.unit == UnitClass::Store))
        d.flags |= DecodedInstr::kIndexed;
    if (instr.op == Opcode::Lb || instr.op == Opcode::Lh)
        d.flags |= DecodedInstr::kSignExt;
    if (m.fpPairRd)
        d.flags |= DecodedInstr::kPairRd;
    switch (m.unit) {
      case UnitClass::FpMul: d.port = FpuOp::Mul; break;
      case UnitClass::FpDiv: d.port = FpuOp::Div; break;
      case UnitClass::FpSqrt: d.port = FpuOp::Sqrt; break;
      case UnitClass::Fma: d.port = FpuOp::Fma; break;
      default: d.port = FpuOp::Add; break;
    }
    // Hazards in scoreboard order: sources ra and rb, then rd (a source
    // of stores/fmadd/amocas, and WAW for any writer). The decoder has
    // checked that pair operands are even.
    auto put = [&](u8 reg) {
        if (reg == 0)
            return;
        for (unsigned k = 0; k < d.numHazards; ++k)
            if (d.hazards[k] == reg)
                return;
        d.hazards[d.numHazards++] = reg;
    };
    auto putOperand = [&](u8 reg, bool pair) {
        put(reg);
        if (pair)
            put(u8(reg + 1));
    };
    if (m.readsRa)
        putOperand(instr.ra, m.fpPairRa);
    if (m.readsRb)
        putOperand(instr.rb, m.fpPairRb);
    if (m.readsRd || m.writesRd)
        putOperand(instr.rd, m.fpPairRd);
    return d;
}

void
Chip::badPc(PhysAddr pc) const
{
    const PhysAddr base = program_.textBase;
    guestCrash("PC 0x%06x outside program text [0x%06x, 0x%06x)", pc, base,
               base + program_.textBytes());
}

// --- Units and the cycle engine -------------------------------------------------

void
Chip::setUnit(ThreadId tid, std::unique_ptr<Unit> unit)
{
    if (tid >= cfg_.numThreads)
        fatal("setUnit: no hardware thread %u", tid);
    if (units_[tid] && !units_[tid]->halted())
        fatal("setUnit: thread %u is still running", tid);
    units_[tid] = std::move(unit);
}

void
Chip::activate(ThreadId tid, Cycle when)
{
    if (tid >= cfg_.numThreads || !units_[tid])
        fatal("activate: no unit installed on thread %u", tid);
    if (!tuAlive_[tid])
        fatal("activate: thread %u is not operational (dead TU, quad "
              "or I-cache)", tid);
    if (active_[tid])
        fatal("activate: thread %u is already running", tid);
    // New work disarms any accumulated progress-free interval.
    lastProgressCycle_ = std::max(now_, when);
    ++liveUnits_;
    active_[tid] = 1;
    if (tracer_.on(TraceCat::Sched))
        tracer_.instant(TraceCat::Sched, tid, "activate",
                        std::max(when, now_));
    schedule(tid, std::max(when, now_));
}

void
Chip::schedule(ThreadId tid, Cycle when)
{
    if (when <= now_)
        when = now_ + 1;
    if (when - now_ < kWheelSize)
        pushWheel(tid, when);
    else
        scheduleFar(tid, when);
}

void
Chip::scheduleFar(ThreadId tid, Cycle when)
{
    far_.emplace(when, tid);
}

[[gnu::always_inline]] inline Cycle
Chip::nextWheelEvent() const
{
    // First occupied slot at a cycle in (now_, now_ + kWheelSize),
    // scanning the occupancy bitmap circularly from the slot after
    // now_. The current slot was drained before this is called, so a
    // set bit below the start index can only mean a wrapped (later)
    // cycle.
    const u32 start = u32(now_ + 1) & (kWheelSize - 1);
    u32 word = start >> 6;
    u64 bitsValue = wheelBits_[word] & (~0ull << (start & 63));
    for (u32 scanned = 0;; ++scanned) {
        if (bitsValue != 0) {
            const u32 slot =
                (word << 6) + u32(std::countr_zero(bitsValue));
            const u32 delta = (slot - start) & (kWheelSize - 1);
            return now_ + 1 + delta;
        }
        if (scanned == kWheelWords)
            return kCycleNever;
        word = (word + 1) & (kWheelWords - 1);
        bitsValue = wheelBits_[word];
    }
}

RunExit
Chip::run(Cycle maxCycles)
{
    // A large finite budget near the top of the cycle space must clamp
    // rather than wrap: now_ + maxCycles can overflow after repeated
    // run() calls even when the caller's budget is constant.
    const Cycle limit = maxCycles >= kCycleNever - now_
                            ? kCycleNever
                            : now_ + maxCycles;
    return exitOf(runTo(limit));
}

RunExit
Chip::exitOf(RunExitReason reason) const
{
    RunExit e(reason, now_);
    if (reason == RunExitReason::Signal)
        e.signal = stopSignal_;
    else if (reason == RunExitReason::Watchdog)
        e.diagnostic = watchdogDump();
    return e;
}

RunExitReason
Chip::runTo(Cycle limit)
{
    // The first cycle anything but ticking is due: a stats sample, a
    // PC sample, the service point or the budget. One compare per
    // cycle tests them all.
    auto nextStop = [&] {
        Cycle at = std::min(svcNext_, limit);
        if (sampling_)
            at = std::min(at, sampler_.nextSampleAt());
        if (profiling_)
            at = std::min(at, profNext_);
        return at;
    };
    Cycle stopAt = nextStop();

    while (liveUnits_ > 0) {
        if (now_ >= stopAt) [[unlikely]] {
            if (sampling_)
                sampler_.maybeSample(now_);
            if (profiling_ && now_ >= profNext_)
                samplePcs();
            if (now_ >= svcNext_) {
                // Low-frequency service point: host stop requests and
                // the deadlock watchdog. Both are cycle-domain so
                // results stay deterministic — only the *reaction* to a
                // host signal depends on wall-clock time.
                svcNext_ = now_ + kServiceInterval;
                const int sig = gStopSignal.load(std::memory_order_relaxed);
                if (sig != 0) {
                    stopSignal_ = sig;
                    return RunExitReason::Signal;
                }
                const u64 sum = progressSum();
                if (sum != lastProgressSum_) {
                    lastProgressSum_ = sum;
                    lastProgressCycle_ = now_;
                } else if (cfg_.fault.watchdogCycles != 0 &&
                           now_ - lastProgressCycle_ >=
                               cfg_.fault.watchdogCycles) {
                    return RunExitReason::Watchdog;
                }
            }
            if (now_ >= limit)
                return RunExitReason::CycleLimit;
            stopAt = nextStop();
        }

        // Gather the units due this cycle: the slot's list in push
        // order, then the far heap's entries in (cycle, tid) order.
        // An empty slot is never touched: its occupancy bit says so.
        const Cycle now = now_;
        ThreadId *const due = due_.data();
        size_t n = 0;
        const u32 slotIdx = u32(now) & (kWheelSize - 1);
        u64 &bits = wheelBits_[slotIdx >> 6];
        const u64 bit = 1ull << (slotIdx & 63);
        if (bits & bit) {
            WheelSlot &slot = wheel_[slotIdx];
            for (ThreadId t = slot.head; t != kNoUnit; t = nextInSlot_[t])
                due[n++] = t;
            slot.head = kNoUnit;
            bits &= ~bit;
            inWheel_ -= u32(n);
        }
        while (!far_.empty() && far_.top().first <= now) {
            due[n++] = far_.top().second;
            far_.pop();
        }

        if (n == 0) {
            // Fast-forward to the next scheduled wake-up.
            Cycle next = inWheel_ > 0 ? nextWheelEvent() : kCycleNever;
            if (!far_.empty())
                next = std::min(next, far_.top().first);
            if (next == kCycleNever)
                panic("cycle engine: %u live units but nothing scheduled",
                      liveUnits_);
            cycles_ += next - now;
            now_ = next;
            continue;
        }

        // Rotate service order every cycle: round-robin arbitration of
        // shared resources among same-cycle requesters. A tick never
        // changes the due list, the unit table or now_.
        const std::unique_ptr<Unit> *units = units_.data();
        size_t pos = n > 1 ? size_t(now % n) : 0;
        for (size_t i = 0; i < n; ++i) {
            const ThreadId tid = due[pos];
            if (++pos == n)
                pos = 0;
            // Ticking a hundred-odd units in turn misses the host L1 on
            // each one's state: start loading the next one's while this
            // one ticks.
            prefetchHotState(units[due[pos]].get());
            Unit *u = units[tid].get();
            const Cycle wake = u->tick(now);
            if (wake - now - 1 < kWheelSize - 1) [[likely]] {
                // In (now, now + kWheelSize): the wheel, inline.
                pushWheel(tid, wake);
            } else if (wake == kCycleNever) {
                if (!u->halted())
                    panic("unit %u returned never but is not halted", tid);
                --liveUnits_;
                active_[tid] = 0;
                if (tracer_.on(TraceCat::Sched))
                    tracer_.instant(TraceCat::Sched, tid, "halt", now);
            } else {
                if (wake <= now)
                    panic("unit %u rescheduled into the past", tid);
                scheduleFar(tid, wake);
            }
        }
        ++cycles_;
        ++now_;
    }
    return RunExitReason::AllHalted;
}

// Take the PC samples due at or before now_. The cycle engine only
// fast-forwards across event-free gaps, so every thread's PC is
// unchanged since the skipped boundaries: one weighted record per unit
// stands for all of them.
void
Chip::samplePcs()
{
    const u64 interval = profiler_.interval();
    const u64 weight = (now_ - profNext_) / interval + 1;
    for (ThreadId tid = 0; tid < cfg_.numThreads; ++tid) {
        if (!active_[tid])
            continue;
        PhysAddr pc = 0;
        const bool mapped = units_[tid]->samplePc(&pc);
        profiler_.record(tid, mapped, pc, weight);
    }
    profNext_ += weight * interval;
}

// --- SPRs and traps -----------------------------------------------------------

u32
Chip::readSpr(ThreadId tid, u32 spr)
{
    switch (spr) {
      case isa::kSprTid:
        return tid;
      case isa::kSprNThreads:
        return cfg_.numThreads;
      case isa::kSprCycleLo:
        return u32(now_);
      case isa::kSprCycleHi:
        return u32(now_ >> 32);
      case isa::kSprBarrier:
        return barrier_.read();
      case isa::kSprMemSize:
        return memsys_.availableMemBytes() / 1024;
      case isa::kSprChipId:
        return chipId_;
      case isa::kSprNumChips:
        return numChips_;
      default:
        break;
    }
    if (spr >= isa::kSprCntBase && spr < isa::kSprCntEnd) {
        // The performance counter file: low 32 bits of the per-TU
        // counts. Reads on a thread with no unit installed return 0.
        const Unit *u = units_[tid].get();
        if (!u)
            return 0;
        switch (spr) {
          case isa::kSprCntCycles:
            return u32(u->chargedCycles());
          case isa::kSprCntInstret:
            return u32(u->instructions());
          case isa::kSprCntDcacheHit:
            return u32(u->dcacheHits());
          case isa::kSprCntDcacheMiss:
            return u32(u->dcacheMisses());
          case isa::kSprCntIcacheMiss:
            return u32(u->icacheMisses());
          case isa::kSprCntBankStall:
            return u32(u->catCycles(CycleCat::BankContention));
          case isa::kSprCntFpuStall:
            return u32(u->catCycles(CycleCat::FpuArb));
          case isa::kSprCntBarrier:
            return u32(u->catCycles(CycleCat::BarrierWait));
        }
    }
    // Reads of reserved/unimplemented SPR numbers are architecturally
    // defined to return 0 (documented in isa.h and DESIGN.md section 12).
    return 0;
}

void
Chip::writeSpr(ThreadId tid, u32 spr, u32 value)
{
    if (spr == isa::kSprBarrier) {
        barrier_.write(tid, u8(value));
        return;
    }
    guestCheck("mtspr to read-only or unknown SPR %u (thread %u)", spr,
               tid);
}

void
Chip::trap(ThreadId tid, u32 code, u32 arg)
{
    ++trapsServed_;
    if (tracer_.on(TraceCat::Kernel))
        tracer_.instant(TraceCat::Kernel, tid, "trap", now_, code);
    switch (code) {
      case isa::kTrapPutChar:
        console_ += char(arg);
        break;
      case isa::kTrapPutInt:
        console_ += strprintf("%d", s32(arg));
        break;
      case isa::kTrapPutHex:
        console_ += strprintf("0x%x", arg);
        break;
      default:
        guestCheck("unknown trap %u from thread %u", code, tid);
    }
}

// --- Fault model ------------------------------------------------------------

void
Chip::failBank(BankId id)
{
    memsys_.failBank(id);
    inform("bank %u failed: %u KB remain addressable", id,
           memsys_.availableMemBytes() / 1024);
}

void
Chip::disableQuad(u32 quad)
{
    if (quad >= cfg_.numQuads())
        fatal("disableQuad: no quad %u", quad);
    quadEnabled_[quad] = false;
    fpuEnabled_[quad] = false;
    memsys_.disableCache(quad);
    recomputeAlive();
    inform("quad %u disabled (threads %u-%u, cache %u)", quad,
           quad * cfg_.threadsPerQuad,
           (quad + 1) * cfg_.threadsPerQuad - 1, quad);
}

// Fuse off the components named in ChipConfig::fault before boot.
// validate() already bounds every index; duplicates are harmless
// after deduplication here.
void
Chip::applyFaultMap()
{
    const FaultConfig &f = cfg_.fault;
    auto unique = [](std::vector<u32> ids) {
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        return ids;
    };
    for (u32 b : unique(f.disabledBanks))
        memsys_.failBank(b);
    for (u32 q : unique(f.disabledQuads)) {
        quadEnabled_[q] = false;
        fpuEnabled_[q] = false;
        memsys_.disableCache(q);
    }
    for (u32 c : unique(f.disabledDcaches)) {
        // The quad's TUs keep running; their Own-class references are
        // remapped by the fabric (see MemSystem::rebuildRouteLut).
        if (memsys_.cacheEnabled(c))
            memsys_.disableCache(c);
    }
    for (u32 q : f.disabledFpus)
        fpuEnabled_[q] = false;
    for (u32 ic : f.disabledIcaches)
        icEnabled_[ic] = false;
    for (u32 t : f.disabledTus)
        tuEnabled_[t] = false;
    recomputeAlive();
    if (f.anyDegraded()) {
        u32 usable = 0;
        for (ThreadId t = 0; t < cfg_.numThreads; ++t)
            usable += tuSchedulable_[t];
        inform("degraded chip: %u of %u TUs schedulable, %u banks, "
               "cache mask 0x%08x", usable, cfg_.numThreads,
               memsys_.availableBanks(), memsys_.enabledCacheMask());
    }
}

void
Chip::recomputeAlive()
{
    tuAlive_.assign(cfg_.numThreads, false);
    tuSchedulable_.assign(cfg_.numThreads, false);
    std::vector<u8> alive(cfg_.numThreads, 0);
    for (ThreadId t = 0; t < cfg_.numThreads; ++t) {
        const u32 quad = t / cfg_.threadsPerQuad;
        const u32 ic = quad / cfg_.quadsPerICache;
        const bool a =
            tuEnabled_[t] && quadEnabled_[quad] && icEnabled_[ic];
        tuAlive_[t] = a;
        tuSchedulable_[t] = a && fpuEnabled_[quad];
        alive[t] = a;
    }
    barrier_.setAlive(alive);
}

// --- Deadlock watchdog ------------------------------------------------------

u64
Chip::progressSum() const
{
    u64 sum = 0;
    for (const auto &u : units_)
        if (u)
            sum += u->progressEvents();
    return sum;
}

std::string
Chip::watchdogDump() const
{
    std::string s = strprintf(
        "deadlock watchdog: no forward progress for %llu cycles "
        "(cycle %llu, %u live units)\n",
        static_cast<unsigned long long>(cfg_.fault.watchdogCycles),
        static_cast<unsigned long long>(now_), liveUnits_);
    s += strprintf("  barrier wired-OR: 0x%02x\n", barrier_.read());
    for (ThreadId tid = 0; tid < cfg_.numThreads; ++tid) {
        if (!active_[tid] || !units_[tid])
            continue;
        const Unit *u = units_[tid].get();
        PhysAddr pc = 0;
        const bool mapped = u->samplePc(&pc);
        s += strprintf(
            "  tu %3u: pc=%s instret=%llu progress=%llu "
            "barrier=0x%02x lastPoll(pc=0x%06llx loc=0x%08llx "
            "value=0x%llx)\n",
            tid,
            mapped ? strprintf("0x%06x", pc).c_str() : "<unmapped>",
            static_cast<unsigned long long>(u->instructions()),
            static_cast<unsigned long long>(u->progressEvents()),
            barrier_.threadValue(tid),
            static_cast<unsigned long long>(u->pollPc()),
            static_cast<unsigned long long>(u->pollLoc()),
            static_cast<unsigned long long>(u->pollValue()));
    }
    return s;
}

// --- Aggregates ------------------------------------------------------------------

u64
Chip::totalRunCycles() const
{
    u64 total = 0;
    for (const auto &u : units_)
        if (u)
            total += u->runCycles();
    return total;
}

u64
Chip::totalStallCycles() const
{
    u64 total = 0;
    for (const auto &u : units_)
        if (u)
            total += u->stallCycles();
    return total;
}

u64
Chip::totalInstructions() const
{
    u64 total = 0;
    for (const auto &u : units_)
        if (u)
            total += u->instructions();
    return total;
}

// --- Observability ----------------------------------------------------------

CycleBreakdown
Chip::attribution(ThreadId tid) const
{
    CycleBreakdown b;
    const Unit *u = units_[tid].get();
    if (!u) {
        b.sleep = now_;
        return b;
    }
    for (u32 i = 0; i < kNumCycleCats; ++i)
        b.cat[i] = u->catCycles(static_cast<CycleCat>(i));
    // Everything outside the charged window is sleep. Under a cycle
    // limit a unit's last charge may extend past now_, in which case
    // the unit simply has no sleep this run.
    const u64 charged = b.charged();
    b.sleep = now_ > charged ? now_ - charged : 0;
    return b;
}

CycleBreakdown
Chip::quadAttribution(u32 quad) const
{
    CycleBreakdown b;
    for (u32 t = 0; t < cfg_.threadsPerQuad; ++t)
        b.add(attribution(quad * cfg_.threadsPerQuad + t));
    return b;
}

CycleBreakdown
Chip::chipAttribution() const
{
    CycleBreakdown b;
    for (ThreadId tid = 0; tid < cfg_.numThreads; ++tid)
        b.add(attribution(tid));
    return b;
}

void
Chip::writeObservability()
{
    sampler_.finalize(now_);
    const ObsConfig &obs = cfg_.obs;
    if (!obs.traceOut.empty())
        tracer_.writeChromeJson(obs.expandPath(obs.traceOut),
                                cfg_.numThreads);
    if (!obs.statsJson.empty()) {
        const std::string path = obs.expandPath(obs.statsJson);
        std::FILE *f = openOutput(path, "stats output");
        writeStatsJson(f, stats_, now_, &sampler_);
        closeOutput(f, path);
    }
    if (!obs.statsCsv.empty()) {
        const std::string path = obs.expandPath(obs.statsCsv);
        std::FILE *f = openOutput(path, "stats CSV output");
        sampler_.writeCsv(f);
        closeOutput(f, path);
    }
    if (!obs.profOut.empty())
        profiler_.writeOutputs(obs.expandPath(obs.profOut), program_,
                               memsys_, cfg_, now_);
}

} // namespace cyclops::arch
