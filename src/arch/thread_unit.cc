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
        regs_[index] = value;
}

void
ThreadUnit::setRegReady(unsigned index, Cycle at, CycleCat producer,
                        u64 queueing)
{
    if (index != 0) {
        ready_[index] = at;
        prodCat_[index] = static_cast<u8>(producer);
        prodQueue_[index] = queueing;
    }
}

double
ThreadUnit::regPair(unsigned even) const
{
    u64 raw = (u64(regs_[even + 1]) << 32) | regs_[even];
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

ThreadUnit::Hazard
ThreadUnit::hazardsClearAt(const Instr &instr) const
{
    const InstrMeta &m = isa::meta(instr.op);
    Hazard h;
    auto consider = [&](unsigned reg, bool pair) {
        if (ready_[reg] > h.at)
            h = {ready_[reg], reg};
        if (pair && ready_[reg + 1] > h.at)
            h = {ready_[reg + 1], reg + 1};
    };
    if (m.readsRa)
        consider(instr.ra, m.fpPairRa);
    if (m.readsRb)
        consider(instr.rb, m.fpPairRb);
    if (m.readsRd || m.writesRd)
        consider(instr.rd, m.fpPairRd);
    return h;
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

    const Instr &instr = chip_.decodedAt(pc_);

    // Register dependences (sources, and WAW on the destination):
    // charge the wait to whatever the producing instruction was
    // waiting on (its stall category and queueing share).
    const Hazard hazard = hazardsClearAt(instr);
    if (hazard.at > now) {
        accountMemWait(now, hazard.at,
                       static_cast<CycleCat>(prodCat_[hazard.reg]),
                       prodQueue_[hazard.reg]);
        // The queueing share is charged once, not per retry.
        prodQueue_[hazard.reg] = 0;
        return hazard.at;
    }

    return issue(now, instr);
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
        u32 a = regs_[ra];
        u32 result = 0;
        switch (instr.op) {
          case Opcode::Add: result = a + regs_[rb]; break;
          case Opcode::Sub: result = a - regs_[rb]; break;
          case Opcode::And: result = a & regs_[rb]; break;
          case Opcode::Or: result = a | regs_[rb]; break;
          case Opcode::Xor: result = a ^ regs_[rb]; break;
          case Opcode::Nor: result = ~(a | regs_[rb]); break;
          case Opcode::Sll: result = a << (regs_[rb] & 31); break;
          case Opcode::Srl: result = a >> (regs_[rb] & 31); break;
          case Opcode::Sra:
            result = u32(s32(a) >> (regs_[rb] & 31));
            break;
          case Opcode::Slt: result = s32(a) < s32(regs_[rb]); break;
          case Opcode::Sltu: result = a < regs_[rb]; break;
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
        if (rd != 0 && regs_[rd] != result)
            noteProgress();
        setReg(rd, result);
        setRegReady(rd, now + 1);
        accountIssue(now, 1);
        pc_ = nextPc;
        return now + 1;
      }

      case UnitClass::IntMul: {
        noteProgress();
        const u64 product = u64(regs_[ra]) * u64(regs_[rb]);
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
        const u32 a = regs_[ra], b = regs_[rb];
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
          case Opcode::Beq: taken = regs_[ra] == regs_[rb]; break;
          case Opcode::Bne: taken = regs_[ra] != regs_[rb]; break;
          case Opcode::Blt:
            taken = s32(regs_[ra]) < s32(regs_[rb]);
            break;
          case Opcode::Bge:
            taken = s32(regs_[ra]) >= s32(regs_[rb]);
            break;
          case Opcode::Bltu: taken = regs_[ra] < regs_[rb]; break;
          case Opcode::Bgeu: taken = regs_[ra] >= regs_[rb]; break;
          case Opcode::Jal:
            setReg(rd, pc_ + 4);
            setRegReady(rd, now + lat.branchExec);
            taken = true;
            break;
          case Opcode::Jalr: {
            const u32 target = (regs_[ra] + u32(imm)) & ~3u;
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
        const Addr ea = indexed ? regs_[ra] + regs_[rb]
                                : m.unit == UnitClass::Atomic
                                      ? regs_[ra]
                                      : regs_[ra] + u32(imm);

        if (m.unit == UnitClass::Atomic) {
            const u32 old = u32(chip_.memRead(ea, 4, tid_));
            // Polling semantics: amotas/amocas re-reading a held lock
            // makes no progress; a changing value (amoadd tickets,
            // released locks) does.
            notePoll(pc_, ea, old);
            u32 fresh = old;
            bool doWrite = true;
            switch (instr.op) {
              case Opcode::Amoadd: fresh = old + regs_[rb]; break;
              case Opcode::Amoswap: fresh = regs_[rb]; break;
              case Opcode::Amocas:
                doWrite = old == regs_[rd];
                fresh = regs_[rb];
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
            u64 value = regs_[rd];
            if (m.memBytes == 8)
                value |= u64(regs_[rd + 1]) << 32;
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
            setRegPair(rd, regPair(ra) + regPair(rb));
            break;
          case Opcode::Fsubd:
            setRegPair(rd, regPair(ra) - regPair(rb));
            break;
          case Opcode::Fmuld:
            setRegPair(rd, regPair(ra) * regPair(rb));
            break;
          case Opcode::Fdivd:
            setRegPair(rd, regPair(ra) / regPair(rb));
            break;
          case Opcode::Fsqrtd:
            setRegPair(rd, std::sqrt(regPair(ra)));
            break;
          case Opcode::Fmadd:
            setRegPair(rd, regPair(ra) * regPair(rb) + regPair(rd));
            break;
          case Opcode::Fmsub:
            setRegPair(rd, regPair(ra) * regPair(rb) - regPair(rd));
            break;
          case Opcode::Fnegd: setRegPair(rd, -regPair(ra)); break;
          case Opcode::Fabsd:
            setRegPair(rd, std::fabs(regPair(ra)));
            break;
          case Opcode::Fmovd: setRegPair(rd, regPair(ra)); break;
          case Opcode::Fadds:
          case Opcode::Fsubs:
          case Opcode::Fmuls: {
            float a, b;
            std::memcpy(&a, &regs_[ra], 4);
            std::memcpy(&b, &regs_[rb], 4);
            float result = instr.op == Opcode::Fadds   ? a + b
                           : instr.op == Opcode::Fsubs ? a - b
                                                       : a * b;
            u32 raw;
            std::memcpy(&raw, &result, 4);
            setReg(rd, raw);
            break;
          }
          case Opcode::Fcvtdw:
            setRegPair(rd, double(s32(regs_[ra])));
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
            chip_.writeSpr(tid_, u32(imm), regs_[ra]);
            if (u32(imm) == isa::kSprBarrier) {
                Tracer &tr = chip_.tracer();
                if (tr.on(TraceCat::Barrier))
                    tr.instant(TraceCat::Barrier, tid_, "mtspr.barrier",
                               now, regs_[ra]);
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
        const Addr ea = regs_[ra] + u32(imm);
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
            chip_.trap(tid_, u32(imm), regs_[4]);
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
