#include "isa/isa.h"

#include <unordered_map>

#include "common/log.h"

namespace cyclops::isa
{

namespace
{

const std::unordered_map<std::string, Opcode> &
mnemonicMap()
{
    static const auto *map = [] {
        auto *m = new std::unordered_map<std::string, Opcode>;
        for (unsigned i = 0; i < kNumOpcodes; ++i)
            (*m)[detail::kMeta[i].mnemonic] = static_cast<Opcode>(i);
        return m;
    }();
    return *map;
}

} // namespace

void
detail::badOpcode(unsigned idx)
{
    panic("invalid opcode %u", idx);
}

const char *
mnemonic(Opcode op)
{
    return meta(op).mnemonic;
}

bool
opcodeFromMnemonic(const std::string &name, Opcode *out)
{
    auto it = mnemonicMap().find(name);
    if (it == mnemonicMap().end())
        return false;
    *out = it->second;
    return true;
}

namespace
{

/** Operand names for the rdcounter pseudo-op, indexed from kSprCntBase. */
const char *const kCounterNames[kNumCounterSprs] = {
    "cycles", "instret", "dhit", "dmiss",
    "imiss", "bankstall", "fpustall", "barrier",
};

} // namespace

const char *
counterName(unsigned spr)
{
    if (spr < kSprCntBase || spr >= kSprCntEnd)
        panic("SPR %u is not a performance counter", spr);
    return kCounterNames[spr - kSprCntBase];
}

bool
counterFromName(const std::string &name, unsigned *spr)
{
    for (unsigned i = 0; i < kNumCounterSprs; ++i) {
        if (name == kCounterNames[i]) {
            *spr = kSprCntBase + i;
            return true;
        }
    }
    return false;
}

bool
isMemOp(Opcode op)
{
    auto unit = meta(op).unit;
    return unit == UnitClass::Load || unit == UnitClass::Store ||
           unit == UnitClass::Atomic;
}

bool
isLoad(Opcode op)
{
    auto unit = meta(op).unit;
    return unit == UnitClass::Load || unit == UnitClass::Atomic;
}

bool
isStore(Opcode op)
{
    auto unit = meta(op).unit;
    return unit == UnitClass::Store || unit == UnitClass::Atomic;
}

bool
isControl(Opcode op)
{
    return meta(op).unit == UnitClass::Branch;
}

} // namespace cyclops::isa
