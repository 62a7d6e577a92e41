/**
 * @file
 * Property tests of instruction semantics: every integer ALU, shift,
 * compare, multiply/divide and floating point operation is executed on
 * the simulator with random operands and checked against a host
 * oracle; memory ops round-trip every access size with sign/zero
 * extension; microarchitectural invariants (WAW ordering, outstanding
 * memory cap, FPU round-robin fairness) are exercised directly.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>

#include "arch/chip.h"
#include "arch/thread_unit.h"
#include "common/rng.h"
#include "isa/builder.h"
#include "kernel/kernel.h"

using namespace cyclops;
using namespace cyclops::arch;
namespace kernel = cyclops::kernel;
using isa::Opcode;
using isa::ProgramBuilder;

namespace
{

/** Run a two-operand register op on the chip; returns r6. */
u32
runIntOp(Opcode op, u32 a, u32 b)
{
    ChipConfig cfg;
    cfg.pibEnabled = false;
    Chip chip(cfg);
    ProgramBuilder builder;
    builder.li(4, a);
    builder.li(5, b);
    builder.emitR(op, 6, 4, 5);
    builder.halt();
    chip.loadProgram(builder.finish());
    auto unit = std::make_unique<ThreadUnit>(0, chip, 0);
    ThreadUnit *tu = unit.get();
    chip.setUnit(0, std::move(unit));
    chip.activate(0);
    EXPECT_EQ(chip.run(10'000), RunExit::AllHalted);
    return tu->reg(6);
}

u32
runImmOp(Opcode op, u32 a, s32 imm)
{
    ChipConfig cfg;
    cfg.pibEnabled = false;
    Chip chip(cfg);
    ProgramBuilder builder;
    builder.li(4, a);
    builder.emitI(op, 6, 4, imm);
    builder.halt();
    chip.loadProgram(builder.finish());
    auto unit = std::make_unique<ThreadUnit>(0, chip, 0);
    ThreadUnit *tu = unit.get();
    chip.setUnit(0, std::move(unit));
    chip.activate(0);
    EXPECT_EQ(chip.run(10'000), RunExit::AllHalted);
    return tu->reg(6);
}

struct IntCase
{
    Opcode op;
    std::function<u32(u32, u32)> oracle;
};

const IntCase kIntCases[] = {
    {Opcode::Add, [](u32 a, u32 b) { return a + b; }},
    {Opcode::Sub, [](u32 a, u32 b) { return a - b; }},
    {Opcode::Mul, [](u32 a, u32 b) { return u32(u64(a) * b); }},
    {Opcode::Mulhu, [](u32 a, u32 b) { return u32((u64(a) * b) >> 32); }},
    {Opcode::Divu, [](u32 a, u32 b) { return b ? a / b : ~0u; }},
    {Opcode::Div,
     [](u32 a, u32 b) {
         if (b == 0)
             return ~0u;
         if (a == 0x8000'0000u && b == ~0u)
             return a;
         return u32(s32(a) / s32(b));
     }},
    {Opcode::And, [](u32 a, u32 b) { return a & b; }},
    {Opcode::Or, [](u32 a, u32 b) { return a | b; }},
    {Opcode::Xor, [](u32 a, u32 b) { return a ^ b; }},
    {Opcode::Nor, [](u32 a, u32 b) { return ~(a | b); }},
    {Opcode::Sll, [](u32 a, u32 b) { return a << (b & 31); }},
    {Opcode::Srl, [](u32 a, u32 b) { return a >> (b & 31); }},
    {Opcode::Sra, [](u32 a, u32 b) { return u32(s32(a) >> (b & 31)); }},
    {Opcode::Slt, [](u32 a, u32 b) { return u32(s32(a) < s32(b)); }},
    {Opcode::Sltu, [](u32 a, u32 b) { return u32(a < b); }},
};

} // namespace

class IntSemantics : public ::testing::TestWithParam<size_t>
{
};

TEST_P(IntSemantics, MatchesOracle)
{
    const IntCase &test = kIntCases[GetParam()];
    Rng rng(0x5E11 + GetParam());
    // Random operands plus the classic corner cases.
    const u32 corners[] = {0, 1, ~0u, 0x8000'0000u, 0x7FFF'FFFFu, 31,
                           32, 33};
    for (u32 a : corners)
        for (u32 b : corners)
            EXPECT_EQ(runIntOp(test.op, a, b), test.oracle(a, b))
                << isa::mnemonic(test.op) << " " << a << "," << b;
    for (int trial = 0; trial < 24; ++trial) {
        const u32 a = u32(rng.next());
        const u32 b = u32(rng.next());
        EXPECT_EQ(runIntOp(test.op, a, b), test.oracle(a, b))
            << isa::mnemonic(test.op) << " " << a << "," << b;
    }
}

INSTANTIATE_TEST_SUITE_P(AllIntOps, IntSemantics,
                         ::testing::Range(size_t(0),
                                          std::size(kIntCases)),
                         [](const auto &info) {
                             return std::string(isa::mnemonic(
                                 kIntCases[info.param].op));
                         });

TEST(IntSemantics, Immediates)
{
    EXPECT_EQ(runImmOp(Opcode::Addi, 10, -3), 7u);
    EXPECT_EQ(runImmOp(Opcode::Andi, 0xFF, 0x0F), 0x0Fu);
    EXPECT_EQ(runImmOp(Opcode::Ori, 0xF0, 0x0F), 0xFFu);
    EXPECT_EQ(runImmOp(Opcode::Xori, 0xFF, 0x0F), 0xF0u);
    EXPECT_EQ(runImmOp(Opcode::Slli, 3, 4), 48u);
    EXPECT_EQ(runImmOp(Opcode::Srli, 0x8000'0000u, 31), 1u);
    EXPECT_EQ(runImmOp(Opcode::Srai, 0x8000'0000u, 31), ~0u);
    EXPECT_EQ(runImmOp(Opcode::Slti, u32(-5), -4), 1u);
    EXPECT_EQ(runImmOp(Opcode::Sltiu, 3, 4), 1u);
    // Logical immediates are zero-extended 13-bit fields.
    EXPECT_EQ(runImmOp(Opcode::Andi, ~0u, -1), 0x1FFFu);
}

// ---------------------------------------------------------------------------
// Floating point against the host FPU.
// ---------------------------------------------------------------------------

namespace
{

double
runFpOp(Opcode op, double a, double b)
{
    ChipConfig cfg;
    cfg.pibEnabled = false;
    Chip chip(cfg);
    ProgramBuilder builder;
    const u32 data = builder.allocData(16, 8);
    builder.pokeDouble(data, a);
    builder.pokeDouble(data + 8, b);
    builder.li(4, data);
    builder.ld(8, 0, 4);
    builder.ld(10, 8, 4);
    builder.fmovd(12, 8); // rd also serves as the FMA accumulator
    // Unary ops must encode rb = 0 (canonical operand check).
    builder.emitR(op, 12, 8, meta(op).readsRb ? 10 : 0);
    builder.sd(12, 0, 4);
    builder.sync();
    builder.halt();
    chip.loadProgram(builder.finish());
    chip.setUnit(0, std::make_unique<ThreadUnit>(0, chip, 0));
    chip.activate(0);
    EXPECT_EQ(chip.run(10'000), RunExit::AllHalted);
    double result;
    chip.readPhys(data, &result, 8);
    return result;
}

} // namespace

TEST(FpSemantics, Arithmetic)
{
    Rng rng(0xF10A7);
    for (int trial = 0; trial < 40; ++trial) {
        const double a = rng.uniform(-1e3, 1e3);
        const double b = rng.uniform(-1e3, 1e3);
        EXPECT_EQ(runFpOp(Opcode::Faddd, a, b), a + b);
        EXPECT_EQ(runFpOp(Opcode::Fsubd, a, b), a - b);
        EXPECT_EQ(runFpOp(Opcode::Fmuld, a, b), a * b);
        EXPECT_EQ(runFpOp(Opcode::Fdivd, a, b), a / b);
        // fmadd: rd = ra*rb + rd where rd was preloaded with a.
        EXPECT_EQ(runFpOp(Opcode::Fmadd, a, b), a * b + a);
        EXPECT_EQ(runFpOp(Opcode::Fmsub, a, b), a * b - a);
    }
}

TEST(FpSemantics, Unary)
{
    EXPECT_EQ(runFpOp(Opcode::Fnegd, 2.5, 0), -2.5);
    EXPECT_EQ(runFpOp(Opcode::Fabsd, -2.5, 0), 2.5);
    EXPECT_EQ(runFpOp(Opcode::Fsqrtd, 81.0, 0), 9.0);
}

TEST(FpSemantics, NanOperandOrderIsFixed)
{
    // A NaN operand decides the NaN result: the first one in operand
    // order, quieted. Left to the compiler, `a + b` may be commuted and
    // return the other payload (the reference interpreter and the
    // timing frontend then disagree).
    const u32 nanA = 0xffffa162, nanB = 0xffffaf9d, one = 0x3f800000;
    EXPECT_EQ(runIntOp(Opcode::Fadds, nanA, nanB), nanA);
    EXPECT_EQ(runIntOp(Opcode::Fadds, nanB, nanA), nanB);
    EXPECT_EQ(runIntOp(Opcode::Fmuls, one, 0x7f800001), 0x7fc00001u);
    EXPECT_EQ(runIntOp(Opcode::Fmuls, 0x7f800001, nanA), 0x7fc00001u);

    const u64 dA = 0x7ff0'0000'0000'0001ull; // signaling
    const u64 dB = 0xfff8'0000'0000'0002ull;
    auto bits = [](double d) { return std::bit_cast<u64>(d); };
    const double a = std::bit_cast<double>(dA);
    const double b = std::bit_cast<double>(dB);
    EXPECT_EQ(bits(runFpOp(Opcode::Faddd, a, b)), dA | (u64(1) << 51));
    EXPECT_EQ(bits(runFpOp(Opcode::Fmuld, b, a)), dB);
    // fmadd: rd = ra*rb + rd, rd preloaded with ra.
    EXPECT_EQ(bits(runFpOp(Opcode::Fmadd, 2.0, b)), dB);
}

TEST(FpSemantics, CompareAndConvert)
{
    ChipConfig cfg;
    cfg.pibEnabled = false;
    Chip chip(cfg);
    ProgramBuilder builder;
    const u32 data = builder.allocData(16, 8);
    builder.pokeDouble(data, 1.5);
    builder.pokeDouble(data + 8, -2.5);
    builder.li(4, data);
    builder.ld(8, 0, 4);  // 1.5
    builder.ld(10, 8, 4); // -2.5
    builder.emitR(Opcode::Fclt, 20, 10, 8); // -2.5 < 1.5 -> 1
    builder.emitR(Opcode::Fcle, 21, 8, 10); // 1.5 <= -2.5 -> 0
    builder.emitR(Opcode::Fceq, 22, 8, 8);  // 1.5 == 1.5 -> 1
    builder.emitR(Opcode::Fcvtwd, 23, 10, 0); // trunc(-2.5) = -2
    builder.li(5, u32(-7));
    builder.emitR(Opcode::Fcvtdw, 12, 5, 0);  // (double)-7
    builder.sd(12, 0, 4);
    builder.sync();
    builder.halt();
    chip.loadProgram(builder.finish());
    auto unit = std::make_unique<ThreadUnit>(0, chip, 0);
    ThreadUnit *tu = unit.get();
    chip.setUnit(0, std::move(unit));
    chip.activate(0);
    ASSERT_EQ(chip.run(10'000), RunExit::AllHalted);
    EXPECT_EQ(tu->reg(20), 1u);
    EXPECT_EQ(tu->reg(21), 0u);
    EXPECT_EQ(tu->reg(22), 1u);
    EXPECT_EQ(tu->reg(23), u32(-2));
    double converted;
    chip.readPhys(data, &converted, 8);
    EXPECT_EQ(converted, -7.0);
}

// ---------------------------------------------------------------------------
// Memory access sizes and extension.
// ---------------------------------------------------------------------------

TEST(MemSemantics, SizesAndExtension)
{
    ChipConfig cfg;
    cfg.pibEnabled = false;
    Chip chip(cfg);
    ProgramBuilder builder;
    const u32 data = builder.allocData(32, 8);
    builder.pokeWord(data, 0x80FF807Fu);
    builder.li(4, data);
    builder.emitI(Opcode::Lb, 10, 4, 0);  // 0x7F -> 127
    builder.emitI(Opcode::Lb, 11, 4, 1);  // 0x80 -> -128
    builder.emitI(Opcode::Lbu, 12, 4, 1); // 0x80 -> 128
    builder.emitI(Opcode::Lh, 13, 4, 2);  // 0x80FF -> sign extended
    builder.emitI(Opcode::Lhu, 14, 4, 2); // 0x80FF zero extended
    builder.emitI(Opcode::Sh, 14, 4, 8);
    builder.emitI(Opcode::Sb, 12, 4, 12);
    builder.sync();
    builder.halt();
    chip.loadProgram(builder.finish());
    auto unit = std::make_unique<ThreadUnit>(0, chip, 0);
    ThreadUnit *tu = unit.get();
    chip.setUnit(0, std::move(unit));
    chip.activate(0);
    ASSERT_EQ(chip.run(10'000), RunExit::AllHalted);
    EXPECT_EQ(tu->reg(10), 0x7Fu);
    EXPECT_EQ(tu->reg(11), u32(-128));
    EXPECT_EQ(tu->reg(12), 128u);
    EXPECT_EQ(tu->reg(13), u32(s32(s16(0x80FF))));
    EXPECT_EQ(tu->reg(14), 0x80FFu);
    EXPECT_EQ(chip.memRead(data + 8, 2, 0), 0x80FFu);
    EXPECT_EQ(chip.memRead(data + 12, 1, 0), 128u);
}

TEST(MemSemantics, IndexedAddressing)
{
    ChipConfig cfg;
    cfg.pibEnabled = false;
    Chip chip(cfg);
    ProgramBuilder builder;
    const u32 data = builder.allocData(64, 8);
    builder.pokeDouble(data + 24, 6.25);
    builder.li(4, data);
    builder.li(5, 24);
    builder.ldx(8, 4, 5);
    builder.li(6, 32);
    builder.sdx(8, 4, 6);
    builder.sync();
    builder.halt();
    chip.loadProgram(builder.finish());
    chip.setUnit(0, std::make_unique<ThreadUnit>(0, chip, 0));
    chip.activate(0);
    ASSERT_EQ(chip.run(10'000), RunExit::AllHalted);
    double copied;
    chip.readPhys(data + 32, &copied, 8);
    EXPECT_EQ(copied, 6.25);
}

// ---------------------------------------------------------------------------
// Microarchitectural invariants.
// ---------------------------------------------------------------------------

TEST(Microarch, OutstandingMemoryCapThrottles)
{
    // With the cap at 1, back-to-back independent loads serialize on
    // the full load latency; with 8, they pipeline at the cache port.
    auto measure = [](u32 cap) {
        ChipConfig cfg;
        cfg.pibEnabled = false;
        cfg.maxOutstandingMem = cap;
        Chip chip(cfg);
        ProgramBuilder builder;
        const u32 data = builder.allocData(64, 64);
        builder.li(4, igAddr(igExactly(0), data));
        builder.lw(5, 0, 4); // warm
        for (int i = 0; i < 16; ++i)
            builder.emitI(Opcode::Lw, u8(20 + i), 4, s32((i % 8) * 4));
        builder.halt();
        chip.loadProgram(builder.finish());
        chip.setUnit(0, std::make_unique<ThreadUnit>(0, chip, 0));
        chip.activate(0);
        chip.run(100'000);
        return chip.now();
    };
    const Cycle throttled = measure(1);
    const Cycle pipelined = measure(8);
    EXPECT_GT(throttled, pipelined + 40);
}

TEST(Microarch, WawOrderingRespected)
{
    // A second write to r6 must not land before the first (slow) one.
    ChipConfig cfg;
    cfg.pibEnabled = false;
    Chip chip(cfg);
    ProgramBuilder builder;
    builder.li(4, 144);
    builder.li(5, 12);
    builder.divu(6, 4, 5); // r6 = 12, ready late
    builder.addi(6, 0, 7); // WAW: must wait, then r6 = 7
    builder.halt();
    chip.loadProgram(builder.finish());
    auto unit = std::make_unique<ThreadUnit>(0, chip, 0);
    ThreadUnit *tu = unit.get();
    chip.setUnit(0, std::move(unit));
    chip.activate(0);
    ASSERT_EQ(chip.run(10'000), RunExit::AllHalted);
    EXPECT_EQ(tu->reg(6), 7u);
}

TEST(ThreadUnit, SameCycleHazardChargesFirstOperand)
{
    // Two source operands become ready on the same cycle: r4 from a
    // mul (FpuArb) and r5 from a barrier-SPR read (BarrierWait). The
    // stall of the dependent add is charged to whichever of them comes
    // first in ra, rb order, so swapping the operands moves the whole
    // stall from one category to the other.
    auto stalls = [](bool r4First) {
        ChipConfig cfg;
        cfg.pibEnabled = false;
        cfg.lat.sprLat = cfg.lat.intMulExec + cfg.lat.intMulLat - 1;
        Chip chip(cfg);
        ProgramBuilder builder;
        builder.mul(4, 2, 3);                // ready at t + 6
        builder.mfspr(5, isa::kSprBarrier);  // issued t + 1, ready t + 6
        if (r4First)
            builder.add(6, 4, 5);
        else
            builder.add(6, 5, 4);
        builder.halt();
        chip.loadProgram(builder.finish());
        chip.setUnit(0, std::make_unique<ThreadUnit>(0, chip, 0));
        chip.activate(0);
        EXPECT_EQ(chip.run(10'000), RunExit::AllHalted);
        const Unit *u = chip.unit(0);
        return std::pair{u->catCycles(CycleCat::FpuArb),
                         u->catCycles(CycleCat::BarrierWait)};
    };
    // The add issues at t + 2 and waits until t + 6.
    EXPECT_EQ(stalls(true), std::pair(u64(4), u64(0)));
    EXPECT_EQ(stalls(false), std::pair(u64(0), u64(4)));
}

TEST(Microarch, FpuRoundRobinIsFair)
{
    // Four threads of one quad each run the same FMA loop; round-robin
    // arbitration should give them near-identical finish times.
    ChipConfig cfg;
    cfg.pibEnabled = false;
    Chip chip(cfg);
    ProgramBuilder builder;
    builder.li(9, 400);
    auto loop = builder.newLabel();
    builder.bind(loop);
    builder.fmadd(12, 14, 16);
    builder.fmadd(20, 22, 24);
    builder.addi(9, 9, -1);
    builder.bne(9, 0, loop);
    builder.halt();
    chip.loadProgram(builder.finish());
    std::vector<ThreadUnit *> units;
    for (ThreadId tid = 0; tid < 4; ++tid) {
        auto unit = std::make_unique<ThreadUnit>(tid, chip, 0);
        units.push_back(unit.get());
        chip.setUnit(tid, std::move(unit));
        chip.activate(tid);
    }
    ASSERT_EQ(chip.run(1'000'000), RunExit::AllHalted);
    u64 lo = ~0ull, hi = 0;
    for (ThreadUnit *unit : units) {
        lo = std::min(lo, unit->stallCycles());
        hi = std::max(hi, unit->stallCycles());
    }
    // No starvation: the spread of stall time is small relative to it.
    EXPECT_LT(double(hi - lo), 0.1 * double(hi));
}

TEST(Microarch, ReservedThreadsAreUnavailable)
{
    Chip chip;
    auto order =
        kernel::threadOrder(chip, kernel::AllocPolicy::Sequential);
    EXPECT_EQ(order.size(), 126u);
    for (ThreadId tid : order)
        EXPECT_LT(tid, 126u);
    auto balanced =
        kernel::threadOrder(chip, kernel::AllocPolicy::Balanced);
    EXPECT_EQ(balanced.size(), 126u);
    // Balanced: first 32 threads land on 32 distinct quads.
    for (u32 i = 0; i < 32; ++i)
        EXPECT_EQ(balanced[i] / 4, i);
}

namespace
{

/**
 * FpuArb and BarrierWait stall cycles of one TU running @p body: r2
 * (and r11) become ready from a mul (FpuArb) on the same cycle as r4
 * (and r13) from a barrier-SPR read (BarrierWait), and @p body's one
 * instruction waits on them. Which category gets the stall shows
 * which of the equally late registers the hazard check charged.
 */
std::pair<u64, u64>
tiedStalls(const std::function<void(ProgramBuilder &)> &body)
{
    ChipConfig cfg;
    cfg.pibEnabled = false;
    cfg.lat.sprLat = cfg.lat.intMulExec + cfg.lat.intMulLat - 1;
    Chip chip(cfg);
    ProgramBuilder builder;
    builder.mul(2, 7, 8);                 // r2 ready at t + 6
    builder.mfspr(4, isa::kSprBarrier);   // r4 ready at t + 6
    builder.mul(11, 7, 8);                // r11 ready at t + 8
    builder.mfspr(13, isa::kSprBarrier);  // r13 ready at t + 8
    body(builder);                        // issues at t + 4
    builder.halt();
    chip.loadProgram(builder.finish());
    chip.setUnit(0, std::make_unique<ThreadUnit>(0, chip, 0));
    chip.activate(0);
    EXPECT_EQ(chip.run(10'000), RunExit::AllHalted);
    const Unit *u = chip.unit(0);
    return std::pair{u->catCycles(CycleCat::FpuArb),
                     u->catCycles(CycleCat::BarrierWait)};
}

} // namespace

TEST(ThreadUnit, RepeatedSourceKeepsFirstLatestCharge)
{
    // add r4, r2, r2: r2 (twice) and the WAW destination r4 are ready
    // on the same cycle; the first, r2, is charged.
    EXPECT_EQ(tiedStalls([](ProgramBuilder &b) { b.add(4, 2, 2); }),
              std::pair(u64(2), u64(0)));
    EXPECT_EQ(tiedStalls([](ProgramBuilder &b) { b.add(2, 4, 4); }),
              std::pair(u64(0), u64(2)));
}

TEST(ThreadUnit, FmaddPairOverlapKeepsFirstLatestCharge)
{
    // Pairs: r10/r11 ready with r11 (FpuArb), r12/r13 with r13
    // (BarrierWait), both at t + 8. The destination pair overlaps a
    // source pair; the first late register in ra, ra+1, rb, rb+1 order
    // is charged.
    EXPECT_EQ(tiedStalls([](ProgramBuilder &b) { b.fmadd(10, 10, 12); }),
              std::pair(u64(4), u64(0)));
    EXPECT_EQ(tiedStalls([](ProgramBuilder &b) { b.fmadd(12, 12, 10); }),
              std::pair(u64(0), u64(4)));
    EXPECT_EQ(tiedStalls([](ProgramBuilder &b) { b.fmadd(12, 10, 12); }),
              std::pair(u64(4), u64(0)));
}

TEST(ThreadUnit, ZeroRegisterNeverTakesTheCharge)
{
    // r0 is never busy: a stall on r0-plus-one-register goes to that
    // register, and r0 as the destination adds no WAW hazard.
    EXPECT_EQ(tiedStalls([](ProgramBuilder &b) { b.add(5, 0, 4); }),
              std::pair(u64(0), u64(2)));
    EXPECT_EQ(tiedStalls([](ProgramBuilder &b) { b.add(0, 0, 2); }),
              std::pair(u64(2), u64(0)));
    EXPECT_EQ(tiedStalls([](ProgramBuilder &b) { b.add(5, 0, 0); }),
              std::pair(u64(0), u64(0)));
}

TEST(Predecode, FieldsMatchMetaForEveryOpcode)
{
    for (unsigned o = 0; o < isa::kNumOpcodes; ++o) {
        const Opcode op = static_cast<Opcode>(o);
        const isa::InstrMeta &m = isa::meta(op);
        isa::Instr instr;
        instr.op = op;
        instr.rd = 10;
        instr.ra = 20;
        instr.rb = 30;
        instr.imm = -7;
        const DecodedInstr d = predecode(instr);
        SCOPED_TRACE(m.mnemonic);
        EXPECT_EQ(d.op, op);
        EXPECT_EQ(d.rd, 10);
        EXPECT_EQ(d.ra, 20);
        EXPECT_EQ(d.rb, 30);
        EXPECT_EQ(d.imm, -7);
        EXPECT_EQ(d.memBytes, m.memBytes);
        const bool loadStore = m.unit == isa::UnitClass::Load ||
                               m.unit == isa::UnitClass::Store;
        EXPECT_EQ(bool(d.flags & DecodedInstr::kIndexed),
                  loadStore && m.format == isa::Format::R);
        EXPECT_EQ(bool(d.flags & DecodedInstr::kSignExt),
                  op == Opcode::Lb || op == Opcode::Lh);
        EXPECT_EQ(bool(d.flags & DecodedInstr::kPairRd), m.fpPairRd);
        FpuOp port = FpuOp::Add;
        if (m.unit == isa::UnitClass::FpMul)
            port = FpuOp::Mul;
        else if (m.unit == isa::UnitClass::FpDiv)
            port = FpuOp::Div;
        else if (m.unit == isa::UnitClass::FpSqrt)
            port = FpuOp::Sqrt;
        else if (m.unit == isa::UnitClass::Fma)
            port = FpuOp::Fma;
        EXPECT_EQ(d.port, port);
        // With distinct nonzero operands the list is every operand the
        // meta entry names, in ra, rb, rd order, pairs expanded.
        std::vector<u8> want;
        if (m.readsRa) {
            want.push_back(20);
            if (m.fpPairRa)
                want.push_back(21);
        }
        if (m.readsRb) {
            want.push_back(30);
            if (m.fpPairRb)
                want.push_back(31);
        }
        if (m.readsRd || m.writesRd) {
            want.push_back(10);
            if (m.fpPairRd)
                want.push_back(11);
        }
        EXPECT_EQ(std::vector<u8>(d.hazards.begin(),
                                  d.hazards.begin() + d.numHazards),
                  want);
    }
}

TEST(Predecode, HazardListChargesLikeTheFullScoreboard)
{
    // The compact list must pick the same (ready cycle, register) as a
    // strict first-max over all six scoreboard slots ra, ra+1, rb,
    // rb+1, rd, rd+1 (absent slots r0), for every opcode, overlapping
    // and r0 operands, and ready times drawn from a tiny range so ties
    // are common.
    Rng rng(7);
    const u8 regs[] = {0, 2, 4};
    for (unsigned o = 0; o < isa::kNumOpcodes; ++o) {
        const Opcode op = static_cast<Opcode>(o);
        const isa::InstrMeta &m = isa::meta(op);
        for (u8 rd : regs) {
            for (u8 ra : regs) {
                for (u8 rb : regs) {
                    const DecodedInstr d = predecode({op, rd, ra, rb, 0});
                    std::array<u8, 6> slots{};
                    auto put = [&](unsigned slot, u8 reg, bool pair) {
                        slots[slot] = reg;
                        if (pair)
                            slots[slot + 1] = u8(reg + 1);
                    };
                    if (m.readsRa)
                        put(0, ra, m.fpPairRa);
                    if (m.readsRb)
                        put(2, rb, m.fpPairRb);
                    if (m.readsRd || m.writesRd)
                        put(4, rd, m.fpPairRd);
                    for (int trial = 0; trial < 20; ++trial) {
                        std::array<Cycle, 8> ready{};
                        for (unsigned r = 1; r < ready.size(); ++r)
                            ready[r] = rng.below(3);
                        auto firstMax = [&](auto begin, auto end) {
                            std::pair<Cycle, unsigned> best{0, 0};
                            for (auto it = begin; it != end; ++it)
                                if (ready[*it] > best.first)
                                    best = {ready[*it], *it};
                            return best;
                        };
                        EXPECT_EQ(firstMax(d.hazards.begin(),
                                           d.hazards.begin() +
                                               d.numHazards),
                                  firstMax(slots.begin(), slots.end()))
                            << m.mnemonic << " rd=" << int(rd)
                            << " ra=" << int(ra) << " rb=" << int(rb);
                    }
                }
            }
        }
    }
}
