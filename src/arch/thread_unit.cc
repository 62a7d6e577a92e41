#include "arch/thread_unit.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "arch/chip.h"
#include "common/bitops.h"
#include "common/log.h"

namespace cyclops::arch
{

using isa::Opcode;

ThreadUnit::ThreadUnit(ThreadId tid, Chip &chip, PhysAddr entry)
    : Unit(tid), chip_(chip), pc_(entry)
{
    mem_.init(chip.config().maxOutstandingMem);
    pib_.init(chip.config());
}

void
ThreadUnit::setReg(unsigned index, u32 value)
{
    if (index != 0)
        rf_[index].value = value;
}

void
ThreadUnit::setRegReady(unsigned index, Cycle at, CycleCat producer,
                        u64 queueing)
{
    if (index != 0) {
        Reg &r = rf_[index];
        r.readyAt = at;
        r.prodCat = static_cast<u8>(producer);
        r.prodQueue = queueing;
    }
}

double
ThreadUnit::regPair(unsigned even) const
{
    u64 raw = (u64(rf_[even + 1].value) << 32) | rf_[even].value;
    double value;
    std::memcpy(&value, &raw, 8);
    return value;
}

void
ThreadUnit::setRegPair(unsigned even, double value)
{
    u64 raw;
    std::memcpy(&raw, &value, 8);
    setReg(even, u32(raw));
    setReg(even + 1, u32(raw >> 32));
}

[[gnu::always_inline]] inline Cycle
ThreadUnit::waitMemSlot(Cycle now)
{
    if (!mem_.full(now))
        return 0;
    const Cycle wake = std::max(mem_.earliest(), now + 1);
    accountWait(now, wake,
                mem_.earliestFabric() ? CycleCat::RemoteWait
                                      : CycleCat::DcacheMiss);
    return wake;
}

// Inlined into tick(), its one caller: one call per issued instruction.
[[gnu::always_inline]] inline Cycle
ThreadUnit::issue(Cycle now, const DecodedInstr &d)
{
    const LatencyConfig &lat = chip_.config().lat;
    const u8 rd = d.rd, ra = d.ra, rb = d.rb;
    const s32 imm = d.imm;
    const u32 a = rf_[ra].value, b = rf_[rb].value;
    const PhysAddr nextPc = pc_ + 4;

    // The tails the opcodes share, one switch below dispatching to them.
    auto alu = [&](u32 result) __attribute__((always_inline)) {
        // Watchdog food: producing a *new* value is forward progress; a
        // spin loop recomputing the same mask/compare result is not.
        if (rd != 0 && rf_[rd].value != result)
            noteProgress();
        setReg(rd, result);
        setRegReady(rd, now + 1);
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
    };
    auto longOp = [&](u32 result, u32 exec, Cycle readyAt,
                      CycleCat producer) __attribute__((always_inline)) {
        noteProgress();
        setReg(rd, result);
        setRegReady(rd, readyAt, producer);
        accountIssue(now, exec);
        pc_ = nextPc;
        return now + exec;
    };
    auto branch = [&](bool taken) __attribute__((always_inline)) {
        pc_ = taken ? nextPc + u32(imm) * 4 : nextPc;
        accountIssue(now, lat.branchExec);
        return now + lat.branchExec;
    };
    auto link = [&](PhysAddr target) __attribute__((always_inline)) {
        setReg(rd, nextPc);
        setRegReady(rd, now + lat.branchExec);
        pc_ = target;
        accountIssue(now, lat.branchExec);
        return now + lat.branchExec;
    };
    auto fp = [&](auto compute) __attribute__((always_inline)) {
        Cycle resultAt = 0;
        if (!chip_.fpuOf(tid_).dispatch(now, d.port, &resultAt)) {
            accountWait(now, now + 1, CycleCat::FpuArb);
            return now + 1; // shared FPU busy: retry (round-robin)
        }
        compute();
        noteProgress();
        setRegReady(rd, resultAt, CycleCat::FpuArb);
        if (d.flags & DecodedInstr::kPairRd)
            setRegReady(rd + 1, resultAt, CycleCat::FpuArb);
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
    };
    auto simple = [&]() __attribute__((always_inline)) {
        noteProgress();
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
    };
    auto stop = [&]() __attribute__((always_inline)) {
        markHalted();
        accountIssue(now, 1);
        return kCycleNever;
    };

    switch (d.op) {
      case Opcode::Add: return alu(a + b);
      case Opcode::Sub: return alu(a - b);
      case Opcode::And: return alu(a & b);
      case Opcode::Or: return alu(a | b);
      case Opcode::Xor: return alu(a ^ b);
      case Opcode::Nor: return alu(~(a | b));
      case Opcode::Sll: return alu(a << (b & 31));
      case Opcode::Srl: return alu(a >> (b & 31));
      case Opcode::Sra: return alu(u32(s32(a) >> (b & 31)));
      case Opcode::Slt: return alu(s32(a) < s32(b));
      case Opcode::Sltu: return alu(a < b);
      case Opcode::Addi: return alu(a + u32(imm));
      case Opcode::Andi: return alu(a & u32(imm & 0x1FFF));
      case Opcode::Ori: return alu(a | u32(imm & 0x1FFF));
      case Opcode::Xori: return alu(a ^ u32(imm & 0x1FFF));
      case Opcode::Slli: return alu(a << (imm & 31));
      case Opcode::Srli: return alu(a >> (imm & 31));
      case Opcode::Srai: return alu(u32(s32(a) >> (imm & 31)));
      case Opcode::Slti: return alu(s32(a) < imm);
      case Opcode::Sltiu: return alu(a < u32(imm));
      case Opcode::Lui: return alu(u32(imm) << 13);

      case Opcode::Mul:
      case Opcode::Mulhu: {
        const u64 product = u64(a) * u64(b);
        return longOp(d.op == Opcode::Mul ? u32(product)
                                          : u32(product >> 32),
                      lat.intMulExec, now + lat.intMulExec + lat.intMulLat,
                      CycleCat::FpuArb);
      }
      case Opcode::Div:
      case Opcode::Divu: {
        u32 result;
        if (b == 0)
            result = ~0u; // division by zero yields all ones
        else if (d.op == Opcode::Divu)
            result = a / b;
        else if (a == 0x8000'0000u && b == ~0u)
            result = a; // overflow wraps
        else
            result = u32(s32(a) / s32(b));
        return longOp(result, lat.intDivExec, now + lat.intDivExec,
                      CycleCat::Run);
      }

      case Opcode::Beq: return branch(a == b);
      case Opcode::Bne: return branch(a != b);
      case Opcode::Blt: return branch(s32(a) < s32(b));
      case Opcode::Bge: return branch(s32(a) >= s32(b));
      case Opcode::Bltu: return branch(a < b);
      case Opcode::Bgeu: return branch(a >= b);
      case Opcode::Jal: return link(nextPc + u32(imm) * 4);
      case Opcode::Jalr: return link((a + u32(imm)) & ~3u);

      case Opcode::Lb:
      case Opcode::Lbu:
      case Opcode::Lh:
      case Opcode::Lhu:
      case Opcode::Lw:
      case Opcode::Ld:
      case Opcode::Lwx:
      case Opcode::Ldx: {
        if (const Cycle wake = waitMemSlot(now))
            return wake;
        const Addr ea =
            a + ((d.flags & DecodedInstr::kIndexed) ? b : u32(imm));
        const MemRef ref = chip_.decodeMem(ea, d.memBytes, tid_);
        u64 raw;
        const MemTiming t = chip_.loadTimed(now, tid_, ref, &raw);
        if (d.flags & DecodedInstr::kSignExt)
            raw = d.memBytes == 1 ? u32(s32(s8(raw))) : u32(s32(s16(raw)));
        notePoll(pc_, ea, raw);
        noteDmem(t.hit);
        const CycleCat prod =
            t.fabric ? CycleCat::RemoteWait : CycleCat::DcacheMiss;
        setReg(rd, u32(raw));
        setRegReady(rd, t.ready, prod, t.queueWait);
        if (d.memBytes == 8) {
            setReg(rd + 1, u32(raw >> 32));
            setRegReady(rd + 1, t.ready, prod, t.queueWait);
        }
        mem_.add(t.ready, t.fabric);
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
      }

      case Opcode::Sb:
      case Opcode::Sh:
      case Opcode::Sw:
      case Opcode::Sd:
      case Opcode::Swx:
      case Opcode::Sdx: {
        if (const Cycle wake = waitMemSlot(now))
            return wake;
        const Addr ea =
            a + ((d.flags & DecodedInstr::kIndexed) ? b : u32(imm));
        noteProgress();
        const MemRef ref = chip_.decodeMem(ea, d.memBytes, tid_);
        u64 value = rf_[rd].value;
        if (d.memBytes == 8)
            value |= u64(rf_[rd + 1].value) << 32;
        const MemTiming t = chip_.storeTimed(now, tid_, ref, value);
        noteDmem(t.hit);
        mem_.add(t.ready, t.fabric);
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
      }

      case Opcode::Amoadd:
      case Opcode::Amoswap:
      case Opcode::Amocas:
      case Opcode::Amotas: {
        if (const Cycle wake = waitMemSlot(now))
            return wake;
        const Addr ea = a;
        const MemRef ref = chip_.decodeAtomic(ea, tid_);
        const u32 old = u32(Chip::load(ref));
        // Polling semantics: amotas/amocas re-reading a held lock
        // makes no progress; a changing value (amoadd tickets,
        // released locks) does.
        notePoll(pc_, ea, old);
        u32 fresh = b;
        bool doWrite = true;
        if (d.op == Opcode::Amoadd)
            fresh = old + b;
        else if (d.op == Opcode::Amocas)
            doWrite = old == rf_[rd].value;
        else if (d.op == Opcode::Amotas)
            fresh = 1;
        if (doWrite)
            Chip::store(ref, fresh);
        const MemTiming t = chip_.dmem(now, tid_, ref, MemKind::Atomic);
        noteDmem(t.hit);
        setReg(rd, old);
        setRegReady(rd, t.ready,
                    t.fabric ? CycleCat::RemoteWait : CycleCat::DcacheMiss,
                    t.queueWait);
        mem_.add(t.ready, t.fabric);
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
      }

      case Opcode::Faddd:
      case Opcode::Fsubd:
      case Opcode::Fmuld:
      case Opcode::Fdivd:
        return fp([&] {
            const double x = regPair(ra), y = regPair(rb);
            const double result = d.op == Opcode::Faddd   ? x + y
                                  : d.op == Opcode::Fsubd ? x - y
                                  : d.op == Opcode::Fmuld ? x * y
                                                          : x / y;
            setRegPair(rd, nanFirst(result, {x, y}));
        });
      case Opcode::Fsqrtd:
        return fp([&] { setRegPair(rd, std::sqrt(regPair(ra))); });
      case Opcode::Fmadd:
      case Opcode::Fmsub:
        return fp([&] {
            const double x = regPair(ra), y = regPair(rb),
                         z = regPair(rd);
            const double result =
                d.op == Opcode::Fmadd ? x * y + z : x * y - z;
            setRegPair(rd, nanFirst(result, {x, y, z}));
        });
      case Opcode::Fnegd:
        return fp([&] { setRegPair(rd, -regPair(ra)); });
      case Opcode::Fabsd:
        return fp([&] { setRegPair(rd, std::fabs(regPair(ra))); });
      case Opcode::Fmovd:
        return fp([&] { setRegPair(rd, regPair(ra)); });
      case Opcode::Fadds:
      case Opcode::Fsubs:
      case Opcode::Fmuls:
        return fp([&] {
            const float x = std::bit_cast<float>(a),
                        y = std::bit_cast<float>(b);
            const float result = d.op == Opcode::Fadds   ? x + y
                                 : d.op == Opcode::Fsubs ? x - y
                                                         : x * y;
            setReg(rd, std::bit_cast<u32>(nanFirst(result, {x, y})));
        });
      case Opcode::Fcvtdw:
        return fp([&] { setRegPair(rd, double(s32(a))); });
      case Opcode::Fcvtwd:
        return fp([&] { setReg(rd, u32(f64ToS32(regPair(ra)))); });
      case Opcode::Fclt:
        return fp([&] { setReg(rd, regPair(ra) < regPair(rb)); });
      case Opcode::Fcle:
        return fp([&] { setReg(rd, regPair(ra) <= regPair(rb)); });
      case Opcode::Fceq:
        return fp([&] { setReg(rd, regPair(ra) == regPair(rb)); });

      case Opcode::Mfspr: {
        const u32 sprValue = chip_.readSpr(tid_, u32(imm));
        // SPRs live in their own poll namespace, above the 32-bit
        // effective-address space. Barrier spins re-read the same OR
        // value (no progress); cycle-counter reads change.
        notePoll(pc_, (u64(1) << 40) | u32(imm), sprValue);
        setReg(rd, sprValue);
        // Waiting on a barrier-SPR read is barrier time; other SPRs
        // charge like any long-latency functional unit.
        setRegReady(rd, now + lat.sprLat,
                    u32(imm) == isa::kSprBarrier ? CycleCat::BarrierWait
                                                 : CycleCat::FpuArb);
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
      }
      case Opcode::Mtspr:
        noteProgress();
        chip_.writeSpr(tid_, u32(imm), a);
        if (u32(imm) == isa::kSprBarrier) {
            Tracer &tr = chip_.tracer();
            if (tr.on(TraceCat::Barrier))
                tr.instant(TraceCat::Barrier, tid_, "mtspr.barrier", now,
                           a);
        }
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;

      case Opcode::Sync: {
        mem_.prune(now);
        if (!mem_.empty()) {
            const Cycle wake = std::max(mem_.latest(), now + 1);
            accountWait(now, wake,
                        mem_.latestFabric() ? CycleCat::RemoteWait
                                            : CycleCat::DcacheMiss);
            return wake;
        }
        return simple();
      }

      case Opcode::Pref:
      case Opcode::Dcbf:
      case Opcode::Dcbi: {
        if (const Cycle wake = waitMemSlot(now))
            return wake;
        const Addr ea = a + u32(imm);
        Cycle done;
        if (d.op == Opcode::Pref) {
            const MemTiming t =
                chip_.dmem(now, tid_, ea, 4, MemKind::Prefetch);
            noteDmem(t.hit);
            done = t.ready;
        } else if (d.op == Opcode::Dcbf) {
            done = chip_.memsys().flush(now, tid_, ea);
        } else {
            done = chip_.memsys().invalidate(now, tid_, ea);
        }
        mem_.add(done);
        return simple();
      }

      case Opcode::Halt:
        return stop();
      case Opcode::Trap:
        if (u32(imm) == isa::kTrapExit)
            return stop();
        chip_.trap(tid_, u32(imm), rf_[4].value);
        return simple();
      case Opcode::Nop:
        return simple();

      case Opcode::kNumOpcodes:
        break;
    }
    panic("unhandled opcode %u", unsigned(d.op));
}

Cycle
ThreadUnit::tick(Cycle now)
{
    if (halted_)
        return kCycleNever;

    // Instruction supply: the PIB must hold the current PC. Refills go
    // through the shared I-cache (two quads) and the memory fabric.
    if (!pib_.contains(pc_)) {
        u32 lineMisses = 0;
        const Cycle ready = chip_.icacheOf(tid_).refill(
            now, pib_.windowBase(pc_), chip_.memsys(),
            tid_ / chip_.config().threadsPerQuad, &lineMisses);
        noteImiss(lineMisses);
        pib_.load(pc_);
        const Cycle wake = std::max(ready, now + 1);
        accountWait(now, wake, CycleCat::IcacheMiss);
        Tracer &tr = chip_.tracer();
        if (tr.on(TraceCat::Cache))
            tr.complete(TraceCat::Cache, tid_, "pibRefill", now,
                        wake - now, pc_);
        return wake;
    }

    const DecodedInstr &decoded = chip_.decodedAt(pc_);

    // Register dependences (sources, and WAW on the destination):
    // charge the wait to whatever the producing instruction was
    // waiting on (its stall category and queueing share). First the
    // latest ready time over the predecoded hazard list, unrolled by
    // its length and branch-free (which operand is latest is
    // data-dependent and mispredicts).
    const u8 *const hazard = decoded.hazards.data();
    Cycle at = 0;
    switch (decoded.numHazards) {
      case 6: at = std::max(at, rf_[hazard[5]].readyAt); [[fallthrough]];
      case 5: at = std::max(at, rf_[hazard[4]].readyAt); [[fallthrough]];
      case 4: at = std::max(at, rf_[hazard[3]].readyAt); [[fallthrough]];
      case 3: at = std::max(at, rf_[hazard[2]].readyAt); [[fallthrough]];
      case 2: at = std::max(at, rf_[hazard[1]].readyAt); [[fallthrough]];
      case 1: at = std::max(at, rf_[hazard[0]].readyAt); [[fallthrough]];
      default: break;
    }
    if (at > now) {
        // Stalled: of equally late registers the first in ra, rb, rd
        // order is charged.
        unsigned k = 0;
        while (rf_[hazard[k]].readyAt != at)
            ++k;
        Reg &producer = rf_[hazard[k]];
        accountMemWait(now, at, static_cast<CycleCat>(producer.prodCat),
                       producer.prodQueue);
        // The queueing share is charged once, not per retry.
        producer.prodQueue = 0;
        return at;
    }

    return issue(now, decoded);
}

} // namespace cyclops::arch
