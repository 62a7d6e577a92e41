/**
 * @file
 * The Cyclops instruction set architecture.
 *
 * A 32-bit, 3-operand, load/store RISC ISA of about 70 instruction
 * types, modeled on the paper's description: the most widely used
 * PowerPC-style operations plus instructions for multithreaded
 * operation (atomic memory operations, synchronization, and
 * special-purpose-register access for the hardware barrier).
 *
 * Register file: 64 x 32-bit registers per thread (r0 hardwired to
 * zero). Double-precision values live in an even/odd register pair and
 * FP-double instructions require even register operands.
 *
 * Instruction word formats (opcode always in bits [31:25]):
 *
 *   R   | op7 | rd6 | ra6 | rb6 | pad7 |         3-operand register ops
 *   I   | op7 | rd6 | ra6 | simm13     |         immediates, loads/stores
 *   B   | op7 | ra6 | rb6 | soff13     |         conditional branches
 *   J   | op7 | rd6 | soff19          |          jump-and-link
 *   U   | op7 | rd6 | uimm19          |          lui
 *
 * Branch/jump offsets are in words relative to the *next* instruction.
 */

#ifndef CYCLOPS_ISA_ISA_H
#define CYCLOPS_ISA_ISA_H

#include <string>

#include "common/types.h"

namespace cyclops::isa
{

/** Number of architectural registers per thread. */
inline constexpr unsigned kNumRegs = 64;

/** Link register used by call pseudo-instructions. */
inline constexpr unsigned kLinkReg = 63;

/** Stack pointer register by software convention. */
inline constexpr unsigned kStackReg = 1;

/**
 * Special purpose register numbers.
 *
 * SPRs 8..15 form the per-TU performance counter file (read-only,
 * low 32 bits of each count; see DESIGN.md section 12). Reads of any
 * unimplemented/reserved SPR number return 0; writes to anything but
 * the barrier register are architecturally undefined (the simulator
 * treats them as fatal).
 */
enum Spr : u8
{
    kSprTid = 0,      ///< hardware thread id (read-only)
    kSprNThreads = 1, ///< number of thread units (read-only)
    kSprCycleLo = 2,  ///< low 32 bits of the cycle counter (read-only)
    kSprCycleHi = 3,  ///< high 32 bits of the cycle counter (read-only)
    kSprBarrier = 4,  ///< 8-bit wired-OR barrier register
    kSprMemSize = 5,  ///< available memory in KB (fault remap, read-only)
    kSprChipId = 6,   ///< this chip's id in a multi-chip system (read-only)
    kSprNumChips = 7, ///< chips in the system; 1 standalone (read-only)
    kNumSprs = 8,

    // Performance counter file (rdcounter pseudo-op reads these).
    kSprCntBase = 8,
    kSprCntCycles = 8,     ///< cycles this TU has been charged
    kSprCntInstret = 9,    ///< instructions retired
    kSprCntDcacheHit = 10, ///< D-cache hits (loads/stores/atomics/pref)
    kSprCntDcacheMiss = 11, ///< D-cache misses
    kSprCntIcacheMiss = 12, ///< I-cache line misses on PIB refills
    kSprCntBankStall = 13,  ///< cycles stalled on memory-bank conflicts
    kSprCntFpuStall = 14,   ///< cycles stalled on FPU arbitration
    kSprCntBarrier = 15,    ///< cycles waiting at the hardware barrier
    kSprCntEnd = 16,
};

/** Number of performance counters in the counter file. */
inline constexpr unsigned kNumCounterSprs = kSprCntEnd - kSprCntBase;

/** Mnemonic counter name for SPR @p spr in [kSprCntBase, kSprCntEnd). */
const char *counterName(unsigned spr);

/** Look up a counter SPR by rdcounter operand name; false if unknown. */
bool counterFromName(const std::string &name, unsigned *spr);

/** Trap codes recognized by the resident kernel (I-format imm field). */
enum TrapCode : u32
{
    kTrapExit = 0,    ///< terminate this thread (same as HALT)
    kTrapPutChar = 1, ///< write low byte of r4 to the console
    kTrapPutInt = 2,  ///< write decimal value of r4 to the console
    kTrapPutHex = 3,  ///< write hex value of r4 to the console
};

/** Instruction word layout. */
enum class Format : u8 { R, I, B, J, U };

/** Execution resource an instruction occupies (for timing). */
enum class UnitClass : u8
{
    IntAlu,  ///< single-cycle integer/logic ops
    IntMul,  ///< integer multiply (pipelined in the fixed-point unit)
    IntDiv,  ///< integer divide (unpipelined)
    Branch,  ///< conditional branches and jumps
    Load,    ///< memory read
    Store,   ///< memory write
    Atomic,  ///< atomic read-modify-write
    FpAdd,   ///< FPU adder (also conversions, compares, moves)
    FpMul,   ///< FPU multiplier
    FpDiv,   ///< FPU divide unit
    FpSqrt,  ///< FPU square-root (shares the divide unit)
    Fma,     ///< fused multiply-add (adder + multiplier)
    Spr,     ///< special purpose register access
    Sync,    ///< memory fence
    CacheOp, ///< flush/invalidate/prefetch
    Misc,    ///< nop, trap, halt
};

/** Opcodes. Values are the 7-bit encodings and are ABI-stable. */
enum class Opcode : u8
{
    // Integer register-register.
    Add, Sub, Mul, Mulhu, Div, Divu,
    And, Or, Xor, Nor,
    Sll, Srl, Sra,
    Slt, Sltu,
    // Integer immediates.
    Addi, Andi, Ori, Xori,
    Slli, Srli, Srai,
    Slti, Sltiu, Lui,
    // Control transfer.
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    Jal, Jalr,
    Halt, Trap,
    // Memory.
    Lb, Lbu, Lh, Lhu, Lw,
    Sb, Sh, Sw,
    Ld, Sd,
    Lwx, Swx, Ldx, Sdx,
    // Atomics and ordering.
    Amoadd, Amoswap, Amocas, Amotas,
    Sync,
    // Floating point, double precision (even register pairs).
    Faddd, Fsubd, Fmuld, Fdivd, Fsqrtd,
    Fmadd, Fmsub,
    Fnegd, Fabsd, Fmovd,
    // Floating point, single precision.
    Fadds, Fsubs, Fmuls,
    // Conversions and compares (int register <-> double pair).
    Fcvtdw, Fcvtwd,
    Fclt, Fcle, Fceq,
    // Special purpose registers and cache control.
    Mfspr, Mtspr,
    Pref, Dcbf, Dcbi,
    Nop,
    kNumOpcodes,
};

inline constexpr unsigned kNumOpcodes =
    static_cast<unsigned>(Opcode::kNumOpcodes);

/** Static properties of one opcode. */
struct InstrMeta
{
    const char *mnemonic;
    Format format;
    UnitClass unit;
    bool readsRa;    ///< ra is a source register
    bool readsRb;    ///< rb is a source register
    bool readsRd;    ///< rd is also a source (stores, fmadd, amocas)
    bool writesRd;   ///< rd is written
    bool fpPairRd;   ///< rd names an even/odd pair
    bool fpPairRa;   ///< ra names an even/odd pair
    bool fpPairRb;   ///< rb names an even/odd pair
    u8 memBytes;     ///< access size for memory ops, else 0
};

namespace detail
{

using F = Format;
using U = UnitClass;

// Compact initializer:         mnem    fmt  unit  rA rB rD wD  pD pA pB  mem
inline constexpr InstrMeta kMeta[kNumOpcodes] = {
    /* Add    */ {"add",    F::R, U::IntAlu, 1, 1, 0, 1, 0, 0, 0, 0},
    /* Sub    */ {"sub",    F::R, U::IntAlu, 1, 1, 0, 1, 0, 0, 0, 0},
    /* Mul    */ {"mul",    F::R, U::IntMul, 1, 1, 0, 1, 0, 0, 0, 0},
    /* Mulhu  */ {"mulhu",  F::R, U::IntMul, 1, 1, 0, 1, 0, 0, 0, 0},
    /* Div    */ {"div",    F::R, U::IntDiv, 1, 1, 0, 1, 0, 0, 0, 0},
    /* Divu   */ {"divu",   F::R, U::IntDiv, 1, 1, 0, 1, 0, 0, 0, 0},
    /* And    */ {"and",    F::R, U::IntAlu, 1, 1, 0, 1, 0, 0, 0, 0},
    /* Or     */ {"or",     F::R, U::IntAlu, 1, 1, 0, 1, 0, 0, 0, 0},
    /* Xor    */ {"xor",    F::R, U::IntAlu, 1, 1, 0, 1, 0, 0, 0, 0},
    /* Nor    */ {"nor",    F::R, U::IntAlu, 1, 1, 0, 1, 0, 0, 0, 0},
    /* Sll    */ {"sll",    F::R, U::IntAlu, 1, 1, 0, 1, 0, 0, 0, 0},
    /* Srl    */ {"srl",    F::R, U::IntAlu, 1, 1, 0, 1, 0, 0, 0, 0},
    /* Sra    */ {"sra",    F::R, U::IntAlu, 1, 1, 0, 1, 0, 0, 0, 0},
    /* Slt    */ {"slt",    F::R, U::IntAlu, 1, 1, 0, 1, 0, 0, 0, 0},
    /* Sltu   */ {"sltu",   F::R, U::IntAlu, 1, 1, 0, 1, 0, 0, 0, 0},
    /* Addi   */ {"addi",   F::I, U::IntAlu, 1, 0, 0, 1, 0, 0, 0, 0},
    /* Andi   */ {"andi",   F::I, U::IntAlu, 1, 0, 0, 1, 0, 0, 0, 0},
    /* Ori    */ {"ori",    F::I, U::IntAlu, 1, 0, 0, 1, 0, 0, 0, 0},
    /* Xori   */ {"xori",   F::I, U::IntAlu, 1, 0, 0, 1, 0, 0, 0, 0},
    /* Slli   */ {"slli",   F::I, U::IntAlu, 1, 0, 0, 1, 0, 0, 0, 0},
    /* Srli   */ {"srli",   F::I, U::IntAlu, 1, 0, 0, 1, 0, 0, 0, 0},
    /* Srai   */ {"srai",   F::I, U::IntAlu, 1, 0, 0, 1, 0, 0, 0, 0},
    /* Slti   */ {"slti",   F::I, U::IntAlu, 1, 0, 0, 1, 0, 0, 0, 0},
    /* Sltiu  */ {"sltiu",  F::I, U::IntAlu, 1, 0, 0, 1, 0, 0, 0, 0},
    /* Lui    */ {"lui",    F::U, U::IntAlu, 0, 0, 0, 1, 0, 0, 0, 0},
    /* Beq    */ {"beq",    F::B, U::Branch, 1, 1, 0, 0, 0, 0, 0, 0},
    /* Bne    */ {"bne",    F::B, U::Branch, 1, 1, 0, 0, 0, 0, 0, 0},
    /* Blt    */ {"blt",    F::B, U::Branch, 1, 1, 0, 0, 0, 0, 0, 0},
    /* Bge    */ {"bge",    F::B, U::Branch, 1, 1, 0, 0, 0, 0, 0, 0},
    /* Bltu   */ {"bltu",   F::B, U::Branch, 1, 1, 0, 0, 0, 0, 0, 0},
    /* Bgeu   */ {"bgeu",   F::B, U::Branch, 1, 1, 0, 0, 0, 0, 0, 0},
    /* Jal    */ {"jal",    F::J, U::Branch, 0, 0, 0, 1, 0, 0, 0, 0},
    /* Jalr   */ {"jalr",   F::I, U::Branch, 1, 0, 0, 1, 0, 0, 0, 0},
    /* Halt   */ {"halt",   F::I, U::Misc,   0, 0, 0, 0, 0, 0, 0, 0},
    /* Trap   */ {"trap",   F::I, U::Misc,   0, 0, 0, 0, 0, 0, 0, 0},
    /* Lb     */ {"lb",     F::I, U::Load,   1, 0, 0, 1, 0, 0, 0, 1},
    /* Lbu    */ {"lbu",    F::I, U::Load,   1, 0, 0, 1, 0, 0, 0, 1},
    /* Lh     */ {"lh",     F::I, U::Load,   1, 0, 0, 1, 0, 0, 0, 2},
    /* Lhu    */ {"lhu",    F::I, U::Load,   1, 0, 0, 1, 0, 0, 0, 2},
    /* Lw     */ {"lw",     F::I, U::Load,   1, 0, 0, 1, 0, 0, 0, 4},
    /* Sb     */ {"sb",     F::I, U::Store,  1, 0, 1, 0, 0, 0, 0, 1},
    /* Sh     */ {"sh",     F::I, U::Store,  1, 0, 1, 0, 0, 0, 0, 2},
    /* Sw     */ {"sw",     F::I, U::Store,  1, 0, 1, 0, 0, 0, 0, 4},
    /* Ld     */ {"ld",     F::I, U::Load,   1, 0, 0, 1, 1, 0, 0, 8},
    /* Sd     */ {"sd",     F::I, U::Store,  1, 0, 1, 0, 1, 0, 0, 8},
    /* Lwx    */ {"lwx",    F::R, U::Load,   1, 1, 0, 1, 0, 0, 0, 4},
    /* Swx    */ {"swx",    F::R, U::Store,  1, 1, 1, 0, 0, 0, 0, 4},
    /* Ldx    */ {"ldx",    F::R, U::Load,   1, 1, 0, 1, 1, 0, 0, 8},
    /* Sdx    */ {"sdx",    F::R, U::Store,  1, 1, 1, 0, 1, 0, 0, 8},
    /* Amoadd */ {"amoadd", F::R, U::Atomic, 1, 1, 0, 1, 0, 0, 0, 4},
    /* Amoswap*/ {"amoswap",F::R, U::Atomic, 1, 1, 0, 1, 0, 0, 0, 4},
    /* Amocas */ {"amocas", F::R, U::Atomic, 1, 1, 1, 1, 0, 0, 0, 4},
    /* Amotas */ {"amotas", F::R, U::Atomic, 1, 0, 0, 1, 0, 0, 0, 4},
    /* Sync   */ {"sync",   F::R, U::Sync,   0, 0, 0, 0, 0, 0, 0, 0},
    /* Faddd  */ {"faddd",  F::R, U::FpAdd,  1, 1, 0, 1, 1, 1, 1, 0},
    /* Fsubd  */ {"fsubd",  F::R, U::FpAdd,  1, 1, 0, 1, 1, 1, 1, 0},
    /* Fmuld  */ {"fmuld",  F::R, U::FpMul,  1, 1, 0, 1, 1, 1, 1, 0},
    /* Fdivd  */ {"fdivd",  F::R, U::FpDiv,  1, 1, 0, 1, 1, 1, 1, 0},
    /* Fsqrtd */ {"fsqrtd", F::R, U::FpSqrt, 1, 0, 0, 1, 1, 1, 0, 0},
    /* Fmadd  */ {"fmadd",  F::R, U::Fma,    1, 1, 1, 1, 1, 1, 1, 0},
    /* Fmsub  */ {"fmsub",  F::R, U::Fma,    1, 1, 1, 1, 1, 1, 1, 0},
    /* Fnegd  */ {"fnegd",  F::R, U::FpAdd,  1, 0, 0, 1, 1, 1, 0, 0},
    /* Fabsd  */ {"fabsd",  F::R, U::FpAdd,  1, 0, 0, 1, 1, 1, 0, 0},
    /* Fmovd  */ {"fmovd",  F::R, U::FpAdd,  1, 0, 0, 1, 1, 1, 0, 0},
    /* Fadds  */ {"fadds",  F::R, U::FpAdd,  1, 1, 0, 1, 0, 0, 0, 0},
    /* Fsubs  */ {"fsubs",  F::R, U::FpAdd,  1, 1, 0, 1, 0, 0, 0, 0},
    /* Fmuls  */ {"fmuls",  F::R, U::FpMul,  1, 1, 0, 1, 0, 0, 0, 0},
    /* Fcvtdw */ {"fcvtdw", F::R, U::FpAdd,  1, 0, 0, 1, 1, 0, 0, 0},
    /* Fcvtwd */ {"fcvtwd", F::R, U::FpAdd,  1, 0, 0, 1, 0, 1, 0, 0},
    /* Fclt   */ {"fclt",   F::R, U::FpAdd,  1, 1, 0, 1, 0, 1, 1, 0},
    /* Fcle   */ {"fcle",   F::R, U::FpAdd,  1, 1, 0, 1, 0, 1, 1, 0},
    /* Fceq   */ {"fceq",   F::R, U::FpAdd,  1, 1, 0, 1, 0, 1, 1, 0},
    /* Mfspr  */ {"mfspr",  F::I, U::Spr,    0, 0, 0, 1, 0, 0, 0, 0},
    /* Mtspr  */ {"mtspr",  F::I, U::Spr,    1, 0, 0, 0, 0, 0, 0, 0},
    /* Pref   */ {"pref",   F::I, U::CacheOp,1, 0, 0, 0, 0, 0, 0, 0},
    /* Dcbf   */ {"dcbf",   F::I, U::CacheOp,1, 0, 0, 0, 0, 0, 0, 0},
    /* Dcbi   */ {"dcbi",   F::I, U::CacheOp,1, 0, 0, 0, 0, 0, 0, 0},
    /* Nop    */ {"nop",    F::R, U::Misc,   0, 0, 0, 0, 0, 0, 0, 0},
};

/** Cold path of meta(): panics on an opcode outside the table. */
[[noreturn, gnu::cold]] void badOpcode(unsigned idx);

} // namespace detail

/** Metadata for @p op (inline: the ISA frontend asks once per issue). */
inline const InstrMeta &
meta(Opcode op)
{
    const auto idx = static_cast<unsigned>(op);
    if (idx >= kNumOpcodes) [[unlikely]]
        detail::badOpcode(idx);
    return detail::kMeta[idx];
}

/** Mnemonic for @p op. */
const char *mnemonic(Opcode op);

/** Look up an opcode by mnemonic; returns false if unknown. */
bool opcodeFromMnemonic(const std::string &name, Opcode *out);

/** True for loads, stores and atomics. */
bool isMemOp(Opcode op);

/** True if the opcode is a load (including atomics' read half). */
bool isLoad(Opcode op);

/** True if the opcode writes memory. */
bool isStore(Opcode op);

/** True for conditional branches and jumps. */
bool isControl(Opcode op);

/**
 * A decoded instruction. The simulator predecodes program text into
 * these; the encoder/decoder translates between this form and the
 * 32-bit machine word.
 */
struct Instr
{
    Opcode op = Opcode::Nop;
    u8 rd = 0;
    u8 ra = 0;
    u8 rb = 0;
    s32 imm = 0;

    bool
    operator==(const Instr &other) const
    {
        return op == other.op && rd == other.rd && ra == other.ra &&
               rb == other.rb && imm == other.imm;
    }
};

} // namespace cyclops::isa

#endif // CYCLOPS_ISA_ISA_H
