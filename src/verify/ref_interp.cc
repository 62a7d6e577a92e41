#include "verify/ref_interp.h"

#include <cmath>
#include <cstring>

#include "arch/interest_group.h"
#include "common/bitops.h"
#include "common/log.h"
#include "isa/encoding.h"

namespace cyclops::verify
{

using arch::IgClass;
using arch::igDecode;
using arch::igField;
using arch::igPhys;
using isa::Instr;
using isa::InstrMeta;
using isa::Opcode;
using isa::UnitClass;

RefInterpreter::RefInterpreter(const isa::Program &program, u32 memBytes,
                               u32 numThreads)
    : program_(program), mem_(memBytes, 0), numThreads_(numThreads)
{
    if (!program.text.empty())
        std::memcpy(&mem_[program.textBase], program.text.data(),
                    program.textBytes());
    if (!program.data.empty())
        std::memcpy(&mem_[program.dataBase], program.data.data(),
                    program.data.size());
    decoded_.resize(program.text.size());
    for (size_t i = 0; i < program.text.size(); ++i)
        if (!isa::decode(program.text[i], &decoded_[i]))
            fatal("undecodable instruction word 0x%08x at 0x%06x",
                  program.text[i], program.textBase + u32(i) * 4);
}

RefThread &
RefInterpreter::thread(u32 tid)
{
    auto [it, fresh] = threads_.try_emplace(tid);
    if (fresh)
        it->second.pc = program_.entry;
    return it->second;
}

const Instr *
RefInterpreter::decodedAt(u32 pc) const
{
    if (pc < program_.textBase || pc % 4 != 0)
        return nullptr;
    const u32 index = (pc - program_.textBase) / 4;
    if (index >= decoded_.size())
        return nullptr;
    return &decoded_[index];
}

bool
RefInterpreter::memRead(u32 ea, u8 bytes, u64 *value)
{
    if (igDecode(igField(ea)).cls == IgClass::Scratch)
        return false;
    const u32 pa = igPhys(ea);
    if (pa % bytes != 0 || pa + bytes > mem_.size())
        return false;
    *value = 0;
    std::memcpy(value, &mem_[pa], bytes);
    return true;
}

bool
RefInterpreter::memWrite(u32 ea, u8 bytes, u64 value)
{
    if (igDecode(igField(ea)).cls == IgClass::Scratch)
        return false;
    const u32 pa = igPhys(ea);
    if (pa % bytes != 0 || pa + bytes > mem_.size())
        return false;
    std::memcpy(&mem_[pa], &value, bytes);
    return true;
}

void
RefInterpreter::setReg(RefThread &t, unsigned index, u32 value)
{
    if (index != 0)
        t.regs[index] = value;
}

double
RefInterpreter::regPair(const RefThread &t, unsigned even) const
{
    u64 raw = (u64(t.regs[even + 1]) << 32) | t.regs[even];
    double value;
    std::memcpy(&value, &raw, 8);
    return value;
}

void
RefInterpreter::setRegPair(RefThread &t, unsigned even, double value)
{
    u64 raw;
    std::memcpy(&raw, &value, 8);
    setReg(t, even, u32(raw));
    setReg(t, even + 1, u32(raw >> 32));
}

StepStatus
RefInterpreter::unsupported(const RefThread &t, const std::string &why)
{
    error_ = strprintf("pc=0x%06x: %s", t.pc, why.c_str());
    return StepStatus::Unsupported;
}

StepStatus
RefInterpreter::run(u32 tid, u64 maxInstrs)
{
    for (u64 i = 0; i < maxInstrs; ++i) {
        const StepStatus st = step(tid);
        if (st != StepStatus::Ok)
            return st;
    }
    return StepStatus::Ok;
}

StepStatus
RefInterpreter::step(u32 tid)
{
    RefThread &t = thread(tid);
    if (t.halted)
        return StepStatus::Halted;

    const Instr *fetched = decodedAt(t.pc);
    if (!fetched)
        return unsupported(t, "pc outside the text section");
    const Instr &instr = *fetched;
    const InstrMeta &m = isa::meta(instr.op);
    const u8 rd = instr.rd, ra = instr.ra, rb = instr.rb;
    const s32 imm = instr.imm;
    u32 nextPc = t.pc + 4;

    ++t.instructions;
    ++classCounts_[static_cast<u8>(m.unit)];

    switch (m.unit) {
      case UnitClass::IntAlu: {
        const u32 a = t.regs[ra];
        u32 result = 0;
        switch (instr.op) {
          case Opcode::Add:
            result = a + t.regs[rb];
            if (mutation_ == Mutation::AddOffByOne)
                ++result;
            break;
          case Opcode::Sub: result = a - t.regs[rb]; break;
          case Opcode::And: result = a & t.regs[rb]; break;
          case Opcode::Or: result = a | t.regs[rb]; break;
          case Opcode::Xor: result = a ^ t.regs[rb]; break;
          case Opcode::Nor: result = ~(a | t.regs[rb]); break;
          case Opcode::Sll: result = a << (t.regs[rb] & 31); break;
          case Opcode::Srl: result = a >> (t.regs[rb] & 31); break;
          case Opcode::Sra:
            result = u32(s32(a) >> (t.regs[rb] & 31));
            break;
          case Opcode::Slt: result = s32(a) < s32(t.regs[rb]); break;
          case Opcode::Sltu:
            result = mutation_ == Mutation::SltuFlipped ? a > t.regs[rb]
                                                        : a < t.regs[rb];
            break;
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
        setReg(t, rd, result);
        break;
      }

      case UnitClass::IntMul: {
        const u64 product = u64(t.regs[ra]) * u64(t.regs[rb]);
        setReg(t, rd,
               instr.op == Opcode::Mul ? u32(product) : u32(product >> 32));
        break;
      }

      case UnitClass::IntDiv: {
        u32 result;
        const u32 a = t.regs[ra], b = t.regs[rb];
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
        setReg(t, rd, result);
        break;
      }

      case UnitClass::Branch: {
        bool taken = false;
        switch (instr.op) {
          case Opcode::Beq: taken = t.regs[ra] == t.regs[rb]; break;
          case Opcode::Bne: taken = t.regs[ra] != t.regs[rb]; break;
          case Opcode::Blt:
            taken = s32(t.regs[ra]) < s32(t.regs[rb]);
            break;
          case Opcode::Bge:
            taken = s32(t.regs[ra]) >= s32(t.regs[rb]);
            break;
          case Opcode::Bltu: taken = t.regs[ra] < t.regs[rb]; break;
          case Opcode::Bgeu: taken = t.regs[ra] >= t.regs[rb]; break;
          case Opcode::Jal:
            setReg(t, rd, t.pc + 4);
            taken = true;
            break;
          case Opcode::Jalr: {
            const u32 target = (t.regs[ra] + u32(imm)) & ~3u;
            setReg(t, rd, t.pc + 4);
            t.pc = target;
            return StepStatus::Ok;
          }
          default: panic("bad branch opcode");
        }
        t.pc = taken ? t.pc + 4 + u32(imm) * 4 : nextPc;
        return StepStatus::Ok;
      }

      case UnitClass::Load:
      case UnitClass::Store:
      case UnitClass::Atomic: {
        const bool indexed =
            m.format == isa::Format::R && m.unit != UnitClass::Atomic;
        const u32 ea = indexed ? t.regs[ra] + t.regs[rb]
                               : m.unit == UnitClass::Atomic
                                     ? t.regs[ra]
                                     : t.regs[ra] + u32(imm);

        if (m.unit == UnitClass::Atomic) {
            u64 raw = 0;
            if (!memRead(ea, 4, &raw))
                return unsupported(
                    t, strprintf("bad atomic address 0x%08x", ea));
            const u32 old = u32(raw);
            u32 fresh = old;
            bool doWrite = true;
            switch (instr.op) {
              case Opcode::Amoadd: fresh = old + t.regs[rb]; break;
              case Opcode::Amoswap: fresh = t.regs[rb]; break;
              case Opcode::Amocas:
                doWrite = old == t.regs[rd];
                fresh = t.regs[rb];
                break;
              case Opcode::Amotas: fresh = 1; break;
              default: panic("bad atomic opcode");
            }
            if (doWrite && !memWrite(ea, 4, fresh))
                return unsupported(
                    t, strprintf("bad atomic address 0x%08x", ea));
            setReg(t, rd, old);
        } else if (m.unit == UnitClass::Load) {
            u64 raw = 0;
            if (!memRead(ea, m.memBytes, &raw))
                return unsupported(
                    t, strprintf("bad load address 0x%08x", ea));
            switch (instr.op) {
              case Opcode::Lb:
                raw = mutation_ == Mutation::LbZeroExtends
                          ? u32(u8(raw))
                          : u32(s32(s8(raw)));
                break;
              case Opcode::Lh: raw = u32(s32(s16(raw))); break;
              default: break;
            }
            setReg(t, rd, u32(raw));
            if (m.memBytes == 8)
                setReg(t, rd + 1, u32(raw >> 32));
        } else {
            u64 value = t.regs[rd];
            if (m.memBytes == 8)
                value |= u64(t.regs[rd + 1]) << 32;
            if (!memWrite(ea, m.memBytes, value))
                return unsupported(
                    t, strprintf("bad store address 0x%08x", ea));
        }
        break;
      }

      case UnitClass::FpAdd:
      case UnitClass::FpMul:
      case UnitClass::FpDiv:
      case UnitClass::FpSqrt:
      case UnitClass::Fma: {
        switch (instr.op) {
          case Opcode::Faddd:
          case Opcode::Fsubd:
          case Opcode::Fmuld:
          case Opcode::Fdivd: {
            const double a = regPair(t, ra), b = regPair(t, rb);
            const double result = instr.op == Opcode::Faddd   ? a + b
                                  : instr.op == Opcode::Fsubd ? a - b
                                  : instr.op == Opcode::Fmuld ? a * b
                                                              : a / b;
            setRegPair(t, rd, nanFirst(result, {a, b}));
            break;
          }
          case Opcode::Fsqrtd:
            setRegPair(t, rd, std::sqrt(regPair(t, ra)));
            break;
          case Opcode::Fmadd:
          case Opcode::Fmsub: {
            const double a = regPair(t, ra), b = regPair(t, rb);
            const double c = regPair(t, rd);
            const double result =
                instr.op == Opcode::Fmadd ? a * b + c : a * b - c;
            setRegPair(t, rd, nanFirst(result, {a, b, c}));
            break;
          }
          case Opcode::Fnegd: setRegPair(t, rd, -regPair(t, ra)); break;
          case Opcode::Fabsd:
            setRegPair(t, rd, std::fabs(regPair(t, ra)));
            break;
          case Opcode::Fmovd: setRegPair(t, rd, regPair(t, ra)); break;
          case Opcode::Fadds:
          case Opcode::Fsubs:
          case Opcode::Fmuls: {
            float a, b;
            std::memcpy(&a, &t.regs[ra], 4);
            std::memcpy(&b, &t.regs[rb], 4);
            const float result = instr.op == Opcode::Fadds   ? a + b
                                 : instr.op == Opcode::Fsubs ? a - b
                                                             : a * b;
            setReg(t, rd, std::bit_cast<u32>(nanFirst(result, {a, b})));
            break;
          }
          case Opcode::Fcvtdw:
            setRegPair(t, rd, double(s32(t.regs[ra])));
            break;
          case Opcode::Fcvtwd:
            setReg(t, rd, u32(f64ToS32(regPair(t, ra))));
            break;
          case Opcode::Fclt:
            setReg(t, rd, regPair(t, ra) < regPair(t, rb));
            break;
          case Opcode::Fcle:
            setReg(t, rd, regPair(t, ra) <= regPair(t, rb));
            break;
          case Opcode::Fceq:
            setReg(t, rd, regPair(t, ra) == regPair(t, rb));
            break;
          default: panic("bad FP opcode");
        }
        break;
      }

      case UnitClass::Spr: {
        if (instr.op == Opcode::Mfspr) {
            switch (u32(imm)) {
              case isa::kSprTid: setReg(t, rd, tid); break;
              case isa::kSprNThreads: setReg(t, rd, numThreads_); break;
              case isa::kSprMemSize:
                setReg(t, rd, u32(mem_.size()) / 1024);
                break;
              default:
                return unsupported(
                    t, strprintf("mfspr of timing-dependent or unknown "
                                 "SPR %d", imm));
            }
        } else {
            return unsupported(
                t, strprintf("mtspr %d (SPR writes are timing-dependent)",
                             imm));
        }
        break;
      }

      case UnitClass::Sync:
      case UnitClass::CacheOp:
        break; // architecturally a no-op (ordering/placement only)

      case UnitClass::Misc: {
        if (instr.op == Opcode::Halt ||
            (instr.op == Opcode::Trap && u32(imm) == isa::kTrapExit)) {
            t.halted = true;
            return StepStatus::Halted;
        }
        if (instr.op == Opcode::Trap) {
            switch (u32(imm)) {
              case isa::kTrapPutChar: console_ += char(t.regs[4]); break;
              case isa::kTrapPutInt:
                console_ += strprintf("%d", s32(t.regs[4]));
                break;
              case isa::kTrapPutHex:
                console_ += strprintf("0x%x", t.regs[4]);
                break;
              default:
                return unsupported(
                    t, strprintf("unknown trap code %d", imm));
            }
        }
        break;
      }
    }
    t.pc = nextPc;
    return StepStatus::Ok;
}

} // namespace cyclops::verify
