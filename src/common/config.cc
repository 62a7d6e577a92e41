#include "common/config.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/log.h"

namespace cyclops
{

std::string
ObsConfig::expandPath(const std::string &path) const
{
    std::string out = path;
    size_t pos = 0;
    while ((pos = out.find("%t", pos)) != std::string::npos) {
        out.replace(pos, 2, tag);
        pos += tag.size();
    }
    return out;
}

namespace
{

/** "" if every id in @p ids is below @p count, else an error message. */
std::string
checkIds(const std::vector<u32> &ids, u32 count, const char *what)
{
    for (u32 id : ids) {
        if (id >= count)
            return strprintf("fault.%s: no such component %u "
                             "(chip has %u)", what, id, count);
    }
    return "";
}

bool
contains(const std::vector<u32> &ids, u32 id)
{
    return std::find(ids.begin(), ids.end(), id) != ids.end();
}

} // namespace

std::string
ChipConfig::check() const
{
    if (!isPow2(numThreads) || numThreads == 0)
        return strprintf("numThreads (%u) must be a nonzero power of two",
                         numThreads);
    if (!isPow2(threadsPerQuad) || threadsPerQuad == 0 ||
        numThreads % threadsPerQuad != 0) {
        return strprintf("threadsPerQuad (%u) must be a power of two "
                         "dividing numThreads (%u)", threadsPerQuad,
                         numThreads);
    }
    if (quadsPerICache == 0 || numQuads() % quadsPerICache != 0)
        return strprintf("quadsPerICache (%u) must divide numQuads (%u)",
                         quadsPerICache, numQuads());
    if (reservedThreads >= numThreads)
        return strprintf("reservedThreads (%u) must be < numThreads (%u)",
                         reservedThreads, numThreads);

    if (!isPow2(dcacheLineBytes) || dcacheLineBytes < 8 ||
        dcacheLineBytes > 256)
        return strprintf("dcacheLineBytes (%u) must be a power of two "
                         "in [8,256]", dcacheLineBytes);
    if (!isPow2(dcacheAssoc) || dcacheAssoc == 0 || dcacheAssoc > 8)
        return strprintf("dcacheAssoc (%u) must be 1, 2, 4 or 8 "
                         "(\"up to 8-way\")", dcacheAssoc);
    if (dcacheBytes % (dcacheLineBytes * dcacheAssoc) != 0)
        return strprintf("dcacheBytes (%u) must be divisible by "
                         "line*assoc", dcacheBytes);
    if (dcacheScratchWays >= dcacheAssoc)
        return strprintf("dcacheScratchWays (%u) must leave at least one "
                         "cache way (assoc %u)", dcacheScratchWays,
                         dcacheAssoc);
    // The D-cache and I-cache index their sets with a mask and take the
    // tag from the bits above it, so a set count that is not a power of
    // two would alias distinct lines onto one (set, tag).
    if (!isPow2(dcacheSets()))
        return strprintf("dcacheBytes (%u) gives %u sets of %u x %u-byte "
                         "lines; the set count must be a power of two",
                         dcacheBytes, dcacheSets(), dcacheAssoc,
                         dcacheLineBytes);
    if (dcacheMshrs == 0)
        return "dcacheMshrs must be nonzero";

    if (!isPow2(icacheLineBytes) || icacheLineBytes < 8)
        return strprintf("icacheLineBytes (%u) must be a power of two "
                         ">= 8", icacheLineBytes);
    if (!isPow2(icacheAssoc) || icacheAssoc == 0)
        return strprintf("icacheAssoc (%u) must be a power of two",
                         icacheAssoc);
    if (const u32 sets = icacheBytes / (icacheLineBytes * icacheAssoc);
        !isPow2(sets))
        return strprintf("icacheBytes (%u) gives %u sets of %u x %u-byte "
                         "lines; the set count must be a power of two",
                         icacheBytes, sets, icacheAssoc, icacheLineBytes);
    if (pibEntries == 0 || !isPow2(pibEntries))
        return strprintf("pibEntries (%u) must be a power of two",
                         pibEntries);

    if (!isPow2(numBanks) || numBanks == 0)
        return strprintf("numBanks (%u) must be a nonzero power of two",
                         numBanks);
    if (!isPow2(memBlockBytes) || memBlockBytes == 0)
        return strprintf("memBlockBytes (%u) must be a nonzero power "
                         "of two", memBlockBytes);
    if (dcacheLineBytes % memBlockBytes != 0)
        return strprintf("dcacheLineBytes (%u) must be a multiple of "
                         "memBlockBytes (%u)", dcacheLineBytes,
                         memBlockBytes);
    if (physAddrBits == 0 || physAddrBits > 24)
        return strprintf("physAddrBits (%u) must be in [1,24]: the upper "
                         "8 bits of the 32-bit effective address carry "
                         "the interest group", physAddrBits);
    if (memBytes() > (1u << physAddrBits))
        return strprintf("total memory (%u bytes) exceeds the physical "
                         "address space (%u bits)", memBytes(),
                         physAddrBits);

    if (maxOutstandingMem == 0)
        return "maxOutstandingMem must be nonzero";
    if (numRegs != 64)
        return strprintf("the Cyclops ISA defines 64 registers; "
                         "numRegs=%u", numRegs);

    if (lat.memLocalMiss <= lat.memLocalHit ||
        lat.memRemoteHit <= lat.memLocalHit ||
        lat.memRemoteMiss <= lat.memRemoteHit) {
        return "memory latencies must be ordered: localHit < remoteHit "
               "< remoteMiss and localHit < localMiss";
    }
    if (lat.bankBurstBlockCycles > lat.bankBlockCycles)
        return strprintf("burst block service (%u) must not exceed the "
                         "normal block service (%u)",
                         lat.bankBurstBlockCycles, lat.bankBlockCycles);

    // --- Fault map ----------------------------------------------------
    std::string err;
    if (!(err = checkIds(fault.disabledTus, numThreads, "disabledTus"))
             .empty())
        return err;
    if (!(err = checkIds(fault.disabledQuads, numQuads(),
                         "disabledQuads")).empty())
        return err;
    if (!(err = checkIds(fault.disabledFpus, numFpus(), "disabledFpus"))
             .empty())
        return err;
    if (!(err = checkIds(fault.disabledDcaches, numCaches(),
                         "disabledDcaches")).empty())
        return err;
    if (!(err = checkIds(fault.disabledIcaches, numICaches(),
                         "disabledIcaches")).empty())
        return err;
    if (!(err = checkIds(fault.disabledBanks, numBanks,
                         "disabledBanks")).empty())
        return err;

    // At least one bank and one cache must survive: the memory fabric
    // cannot route with zero members.
    u32 deadBanks = 0;
    for (u32 b = 0; b < numBanks; ++b)
        deadBanks += contains(fault.disabledBanks, b);
    if (deadBanks >= numBanks)
        return "fault map disables every memory bank";
    u32 deadCaches = 0;
    for (u32 c = 0; c < numCaches(); ++c) {
        if (contains(fault.disabledDcaches, c) ||
            contains(fault.disabledQuads, c))
            ++deadCaches;
    }
    if (deadCaches >= numCaches())
        return "fault map disables every data cache";

    if (fault.cacheWays != 0) {
        if (fault.cacheWays > dcacheAssoc - dcacheScratchWays)
            return strprintf("fault.cacheWays (%u) exceeds the %u ways "
                             "available after scratch partitioning",
                             fault.cacheWays,
                             dcacheAssoc - dcacheScratchWays);
    }
    return "";
}

void
ChipConfig::validate() const
{
    const std::string err = check();
    if (!err.empty())
        fatal("%s", err.c_str());
}

namespace
{

void
appendIds(std::string *out, const char *key, const std::vector<u32> &ids)
{
    if (ids.empty())
        return;
    std::vector<u32> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    *out += key;
    *out += '=';
    for (size_t i = 0; i < sorted.size(); ++i)
        *out += strprintf(i ? ",%u" : "%u", sorted[i]);
    *out += ';';
}

} // namespace

std::string
ChipConfig::describe() const
{
    std::string d;
    d.reserve(1024);
    d += strprintf(
        "threads=%u;tpq=%u;qpi=%u;rsvd=%u;"
        "dc=%u,%u,%u,%u,%u;ic=%u,%u,%u;pib=%u;"
        "banks=%u,%u,%u;pab=%u;offchip=%llu;"
        "outmem=%u;regs=%u;pibEn=%u;sanf=%u;burst=%u;clk=%llu;",
        numThreads, threadsPerQuad, quadsPerICache, reservedThreads,
        dcacheBytes, dcacheLineBytes, dcacheAssoc, dcacheScratchWays,
        dcacheMshrs, icacheBytes, icacheLineBytes, icacheAssoc,
        pibEntries, numBanks, bankBytes, memBlockBytes, physAddrBits,
        static_cast<unsigned long long>(offChipBytes), maxOutstandingMem,
        numRegs, pibEnabled, storeAllocNoFetch, burstEnabled,
        static_cast<unsigned long long>(clockHz));
    d += strprintf(
        "lat=%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,"
        "%u,%u,%u,%u,%u,%u;",
        lat.branchExec, lat.intMulExec, lat.intMulLat, lat.intDivExec,
        lat.fpAddExec, lat.fpAddLat, lat.fpDivExec, lat.fpSqrtExec,
        lat.fmaExec, lat.fmaLat, lat.memLocalHit, lat.memLocalMiss,
        lat.memRemoteHit, lat.memRemoteMiss, lat.remoteReqHop,
        lat.remoteRespHop, lat.remoteMissExtra, lat.missToBank,
        lat.bankToCache, lat.bankBlockCycles, lat.bankBurstBlockCycles,
        lat.offChipBlockCycles, lat.icacheHitRefill, lat.sprLat);
    d += strprintf("latAtomic=%u;", lat.atomicExtra);
    appendIds(&d, "fTus", fault.disabledTus);
    appendIds(&d, "fQuads", fault.disabledQuads);
    appendIds(&d, "fFpus", fault.disabledFpus);
    appendIds(&d, "fDc", fault.disabledDcaches);
    appendIds(&d, "fIc", fault.disabledIcaches);
    appendIds(&d, "fBanks", fault.disabledBanks);
    if (fault.cacheWays != 0)
        d += strprintf("fWays=%u;", fault.cacheWays);
    return d;
}

u64
ChipConfig::hash() const
{
    const std::string d = describe();
    u64 h = 0xcbf29ce484222325ull;
    for (const char c : d) {
        h ^= static_cast<u8>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace cyclops
