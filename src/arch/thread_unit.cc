#include "arch/thread_unit.h"

#include <cmath>
#include <cstring>

#include "arch/chip.h"
#include "common/bitops.h"
#include "common/log.h"

namespace cyclops::arch
{

using isa::Instr;
using isa::InstrMeta;
using isa::Opcode;
using isa::UnitClass;

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
    // waiting on (its stall category and queueing share). The max over
    // the predecoded slots is strict, so of equally late operands the
    // first in ra, rb, rd order is charged; absent slots are r0, ready
    // at 0, and never win. Selects, not branches: which operand is
    // latest is data-dependent and mispredicts.
    Cycle at = 0;
    unsigned reg = 0;
    for (const u8 r : decoded.hazardRegs) {
        const Cycle ready = rf_[r].readyAt;
        const bool later = ready > at;
        at = later ? ready : at;
        reg = later ? r : reg;
    }
    if (at > now) {
        Reg &producer = rf_[reg];
        accountMemWait(now, at, static_cast<CycleCat>(producer.prodCat),
                       producer.prodQueue);
        // The queueing share is charged once, not per retry.
        producer.prodQueue = 0;
        return at;
    }

    return issue(now, decoded.instr);
}

Cycle
ThreadUnit::issue(Cycle now, const Instr &instr)
{
    const ChipConfig &cfg = chip_.config();
    const LatencyConfig &lat = cfg.lat;
    const InstrMeta &m = isa::meta(instr.op);
    const u8 rd = instr.rd, ra = instr.ra, rb = instr.rb;
    const s32 imm = instr.imm;
    PhysAddr nextPc = pc_ + 4;

    switch (m.unit) {
      case UnitClass::IntAlu: {
        u32 a = rf_[ra].value;
        u32 result = 0;
        switch (instr.op) {
          case Opcode::Add: result = a + rf_[rb].value; break;
          case Opcode::Sub: result = a - rf_[rb].value; break;
          case Opcode::And: result = a & rf_[rb].value; break;
          case Opcode::Or: result = a | rf_[rb].value; break;
          case Opcode::Xor: result = a ^ rf_[rb].value; break;
          case Opcode::Nor: result = ~(a | rf_[rb].value); break;
          case Opcode::Sll: result = a << (rf_[rb].value & 31); break;
          case Opcode::Srl: result = a >> (rf_[rb].value & 31); break;
          case Opcode::Sra:
            result = u32(s32(a) >> (rf_[rb].value & 31));
            break;
          case Opcode::Slt: result = s32(a) < s32(rf_[rb].value); break;
          case Opcode::Sltu: result = a < rf_[rb].value; break;
          case Opcode::Addi: result = a + u32(imm); break;
          case Opcode::Andi: result = a & u32(imm & 0x1FFF); break;
          case Opcode::Ori: result = a | u32(imm & 0x1FFF); break;
          case Opcode::Xori: result = a ^ u32(imm & 0x1FFF); break;
          case Opcode::Slli: result = a << (imm & 31); break;
          case Opcode::Srli: result = a >> (imm & 31); break;
          case Opcode::Srai: result = u32(s32(a) >> (imm & 31)); break;
          case Opcode::Slti: result = s32(a) < imm; break;
          case Opcode::Sltiu: result = a < u32(imm); break;
          case Opcode::Lui: result = u32(imm) << 13; break;
          default: panic("bad IntAlu opcode");
        }
        // Watchdog food: producing a *new* value is forward progress; a
        // spin loop recomputing the same mask/compare result is not.
        if (rd != 0 && rf_[rd].value != result)
            noteProgress();
        setReg(rd, result);
        setRegReady(rd, now + 1);
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
      }

      case UnitClass::IntMul: {
        noteProgress();
        const u64 product = u64(rf_[ra].value) * u64(rf_[rb].value);
        setReg(rd, instr.op == Opcode::Mul ? u32(product)
                                           : u32(product >> 32));
        setRegReady(rd, now + lat.intMulExec + lat.intMulLat,
                    CycleCat::FpuArb);
        accountIssue(now, lat.intMulExec);
        pc_ = nextPc;
        return now + lat.intMulExec;
      }

      case UnitClass::IntDiv: {
        noteProgress();
        u32 result;
        const u32 a = rf_[ra].value, b = rf_[rb].value;
        if (b == 0) {
            result = ~0u; // division by zero yields all ones
        } else if (instr.op == Opcode::Div) {
            if (a == 0x8000'0000u && b == ~0u)
                result = a; // overflow wraps
            else
                result = u32(s32(a) / s32(b));
        } else {
            result = a / b;
        }
        setReg(rd, result);
        setRegReady(rd, now + lat.intDivExec);
        accountIssue(now, lat.intDivExec);
        pc_ = nextPc;
        return now + lat.intDivExec;
      }

      case UnitClass::Branch: {
        bool taken = false;
        switch (instr.op) {
          case Opcode::Beq: taken = rf_[ra].value == rf_[rb].value; break;
          case Opcode::Bne: taken = rf_[ra].value != rf_[rb].value; break;
          case Opcode::Blt:
            taken = s32(rf_[ra].value) < s32(rf_[rb].value);
            break;
          case Opcode::Bge:
            taken = s32(rf_[ra].value) >= s32(rf_[rb].value);
            break;
          case Opcode::Bltu: taken = rf_[ra].value < rf_[rb].value; break;
          case Opcode::Bgeu: taken = rf_[ra].value >= rf_[rb].value; break;
          case Opcode::Jal:
            setReg(rd, pc_ + 4);
            setRegReady(rd, now + lat.branchExec);
            taken = true;
            break;
          case Opcode::Jalr: {
            const u32 target = (rf_[ra].value + u32(imm)) & ~3u;
            setReg(rd, pc_ + 4);
            setRegReady(rd, now + lat.branchExec);
            pc_ = target;
            accountIssue(now, lat.branchExec);
            return now + lat.branchExec;
          }
          default: panic("bad branch opcode");
        }
        pc_ = taken ? pc_ + 4 + u32(imm) * 4 : nextPc;
        accountIssue(now, lat.branchExec);
        return now + lat.branchExec;
      }

      case UnitClass::Load:
      case UnitClass::Store:
      case UnitClass::Atomic: {
        mem_.prune(now);
        if (mem_.full()) {
            const Cycle wake = std::max(mem_.earliest(), now + 1);
            accountWait(now, wake,
                        mem_.earliestFabric() ? CycleCat::RemoteWait
                                              : CycleCat::DcacheMiss);
            return wake;
        }
        // Atomics address through ra alone (rb is the operand); the
        // indexed loads/stores (lwx/ldx/...) add ra + rb.
        const bool indexed =
            m.format == isa::Format::R && m.unit != UnitClass::Atomic;
        const Addr ea = indexed ? rf_[ra].value + rf_[rb].value
                                : m.unit == UnitClass::Atomic
                                      ? rf_[ra].value
                                      : rf_[ra].value + u32(imm);

        if (m.unit == UnitClass::Atomic) {
            const u32 old = u32(chip_.memRead(ea, 4, tid_));
            // Polling semantics: amotas/amocas re-reading a held lock
            // makes no progress; a changing value (amoadd tickets,
            // released locks) does.
            notePoll(pc_, ea, old);
            u32 fresh = old;
            bool doWrite = true;
            switch (instr.op) {
              case Opcode::Amoadd: fresh = old + rf_[rb].value; break;
              case Opcode::Amoswap: fresh = rf_[rb].value; break;
              case Opcode::Amocas:
                doWrite = old == rf_[rd].value;
                fresh = rf_[rb].value;
                break;
              case Opcode::Amotas: fresh = 1; break;
              default: panic("bad atomic opcode");
            }
            if (doWrite)
                chip_.memWrite(ea, 4, fresh, tid_);
            MemTiming t = chip_.dmem(now, tid_, ea, 4, MemKind::Atomic);
            noteDmem(t.hit);
            setReg(rd, old);
            setRegReady(rd, t.ready,
                        t.fabric ? CycleCat::RemoteWait
                                 : CycleCat::DcacheMiss,
                        t.queueWait);
            mem_.add(t.ready, t.fabric);
        } else if (m.unit == UnitClass::Load) {
            u64 raw = chip_.memRead(ea, m.memBytes, tid_);
            switch (instr.op) {
              case Opcode::Lb: raw = u32(s32(s8(raw))); break;
              case Opcode::Lh: raw = u32(s32(s16(raw))); break;
              default: break;
            }
            notePoll(pc_, ea, raw);
            MemTiming t =
                chip_.dmem(now, tid_, ea, m.memBytes, MemKind::Load);
            noteDmem(t.hit);
            const CycleCat prod = t.fabric ? CycleCat::RemoteWait
                                           : CycleCat::DcacheMiss;
            if (m.memBytes == 8) {
                setReg(rd, u32(raw));
                setReg(rd + 1, u32(raw >> 32));
                setRegReady(rd, t.ready, prod, t.queueWait);
                setRegReady(rd + 1, t.ready, prod, t.queueWait);
            } else {
                setReg(rd, u32(raw));
                setRegReady(rd, t.ready, prod, t.queueWait);
            }
            mem_.add(t.ready, t.fabric);
        } else {
            noteProgress();
            u64 value = rf_[rd].value;
            if (m.memBytes == 8)
                value |= u64(rf_[rd + 1].value) << 32;
            chip_.memWrite(ea, m.memBytes, value, tid_);
            MemTiming t =
                chip_.dmem(now, tid_, ea, m.memBytes, MemKind::Store);
            noteDmem(t.hit);
            mem_.add(t.ready, t.fabric);
        }
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
      }

      case UnitClass::FpAdd:
      case UnitClass::FpMul:
      case UnitClass::FpDiv:
      case UnitClass::FpSqrt:
      case UnitClass::Fma: {
        FpuOp port;
        switch (m.unit) {
          case UnitClass::FpAdd: port = FpuOp::Add; break;
          case UnitClass::FpMul: port = FpuOp::Mul; break;
          case UnitClass::FpDiv: port = FpuOp::Div; break;
          case UnitClass::FpSqrt: port = FpuOp::Sqrt; break;
          default: port = FpuOp::Fma; break;
        }
        Cycle resultAt = 0;
        if (!chip_.fpuOf(tid_).dispatch(now, port, &resultAt)) {
            accountWait(now, now + 1, CycleCat::FpuArb);
            return now + 1; // shared FPU busy: retry (round-robin)
        }
        switch (instr.op) {
          case Opcode::Faddd:
          case Opcode::Fsubd:
          case Opcode::Fmuld:
          case Opcode::Fdivd: {
            const double a = regPair(ra), b = regPair(rb);
            const double result = instr.op == Opcode::Faddd   ? a + b
                                  : instr.op == Opcode::Fsubd ? a - b
                                  : instr.op == Opcode::Fmuld ? a * b
                                                              : a / b;
            setRegPair(rd, nanFirst(result, {a, b}));
            break;
          }
          case Opcode::Fsqrtd:
            setRegPair(rd, std::sqrt(regPair(ra)));
            break;
          case Opcode::Fmadd:
          case Opcode::Fmsub: {
            const double a = regPair(ra), b = regPair(rb), c = regPair(rd);
            const double result =
                instr.op == Opcode::Fmadd ? a * b + c : a * b - c;
            setRegPair(rd, nanFirst(result, {a, b, c}));
            break;
          }
          case Opcode::Fnegd: setRegPair(rd, -regPair(ra)); break;
          case Opcode::Fabsd:
            setRegPair(rd, std::fabs(regPair(ra)));
            break;
          case Opcode::Fmovd: setRegPair(rd, regPair(ra)); break;
          case Opcode::Fadds:
          case Opcode::Fsubs:
          case Opcode::Fmuls: {
            float a, b;
            std::memcpy(&a, &rf_[ra].value, 4);
            std::memcpy(&b, &rf_[rb].value, 4);
            const float result = instr.op == Opcode::Fadds   ? a + b
                                 : instr.op == Opcode::Fsubs ? a - b
                                                             : a * b;
            setReg(rd, std::bit_cast<u32>(nanFirst(result, {a, b})));
            break;
          }
          case Opcode::Fcvtdw:
            setRegPair(rd, double(s32(rf_[ra].value)));
            break;
          case Opcode::Fcvtwd:
            setReg(rd, u32(f64ToS32(regPair(ra))));
            break;
          case Opcode::Fclt:
            setReg(rd, regPair(ra) < regPair(rb));
            break;
          case Opcode::Fcle:
            setReg(rd, regPair(ra) <= regPair(rb));
            break;
          case Opcode::Fceq:
            setReg(rd, regPair(ra) == regPair(rb));
            break;
          default: panic("bad FP opcode");
        }
        noteProgress();
        if (m.fpPairRd) {
            setRegReady(rd, resultAt, CycleCat::FpuArb);
            setRegReady(rd + 1, resultAt, CycleCat::FpuArb);
        } else {
            setRegReady(rd, resultAt, CycleCat::FpuArb);
        }
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
      }

      case UnitClass::Spr: {
        if (instr.op == Opcode::Mfspr) {
            const u32 sprValue = chip_.readSpr(tid_, u32(imm));
            // SPRs live in their own poll namespace, above the 32-bit
            // effective-address space. Barrier spins re-read the same
            // OR value (no progress); cycle-counter reads change.
            notePoll(pc_, (u64(1) << 40) | u32(imm), sprValue);
            setReg(rd, sprValue);
            // Waiting on a barrier-SPR read is barrier time; other
            // SPRs charge like any long-latency functional unit.
            setRegReady(rd, now + lat.sprLat,
                        u32(imm) == isa::kSprBarrier ? CycleCat::BarrierWait
                                                     : CycleCat::FpuArb);
        } else {
            noteProgress();
            chip_.writeSpr(tid_, u32(imm), rf_[ra].value);
            if (u32(imm) == isa::kSprBarrier) {
                Tracer &tr = chip_.tracer();
                if (tr.on(TraceCat::Barrier))
                    tr.instant(TraceCat::Barrier, tid_, "mtspr.barrier",
                               now, rf_[ra].value);
            }
        }
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
      }

      case UnitClass::Sync: {
        mem_.prune(now);
        if (!mem_.empty()) {
            const Cycle wake = std::max(mem_.latest(), now + 1);
            accountWait(now, wake,
                        mem_.latestFabric() ? CycleCat::RemoteWait
                                            : CycleCat::DcacheMiss);
            return wake;
        }
        noteProgress();
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
      }

      case UnitClass::CacheOp: {
        mem_.prune(now);
        if (mem_.full()) {
            const Cycle wake = std::max(mem_.earliest(), now + 1);
            accountWait(now, wake,
                        mem_.earliestFabric() ? CycleCat::RemoteWait
                                              : CycleCat::DcacheMiss);
            return wake;
        }
        const Addr ea = rf_[ra].value + u32(imm);
        Cycle done;
        switch (instr.op) {
          case Opcode::Pref: {
            MemTiming t =
                chip_.dmem(now, tid_, ea, 4, MemKind::Prefetch);
            noteDmem(t.hit);
            done = t.ready;
            break;
          }
          case Opcode::Dcbf:
            done = chip_.memsys().flush(now, tid_, ea);
            break;
          case Opcode::Dcbi:
            done = chip_.memsys().invalidate(now, tid_, ea);
            break;
          default: panic("bad cache op");
        }
        noteProgress();
        mem_.add(done);
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
      }

      case UnitClass::Misc: {
        if (instr.op == Opcode::Halt) {
            markHalted();
            accountIssue(now, 1);
            return kCycleNever;
        }
        if (instr.op == Opcode::Trap) {
            if (u32(imm) == isa::kTrapExit) {
                markHalted();
                accountIssue(now, 1);
                return kCycleNever;
            }
            chip_.trap(tid_, u32(imm), rf_[4].value);
        }
        noteProgress();
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
      }
    }
    panic("unhandled unit class");
}

} // namespace cyclops::arch
