#include "workloads/multichip.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "arch/interest_group.h"
#include "common/log.h"
#include "exec/engine.h"
#include "net/topology.h"

namespace cyclops::workloads
{

using arch::igAddr;
using arch::kIgDefault;
using arch::remoteEa;
using arch::RunExit;

namespace
{

// Fixed per-chip physical layout. Guests never use the heap; the
// buffers live at fixed offsets so the host can initialize and verify
// them with readPhys/writePhys and hash them for the fingerprint.
constexpr PhysAddr kResultBase = 0x10000; ///< per-thread checksum slots
constexpr PhysAddr kABase = 0x20000;      ///< STREAM destination a[]
constexpr PhysAddr kStreamOff = 0x8000;   ///< b[] offset inside the window

/** The six mesh/torus neighbors of @p chip, -1 where none exists. */
std::array<int, 6>
neighborsOf(const net::Topology &topo, const net::NetConfig &net, u32 chip)
{
    const net::Coord c = topo.coordOf(chip);
    const u32 ext[3] = {net.dimX, net.dimY, net.dimZ};
    const u32 at[3] = {c.x, c.y, c.z};
    std::array<int, 6> nbr{};
    for (u32 axis = 0; axis < 3; ++axis) {
        for (u32 minus = 0; minus < 2; ++minus) {
            const u32 d = axis * 2 + minus; // net::Dir order: X+,X-,Y+,...
            if (ext[axis] == 1) {
                nbr[d] = -1;
                continue;
            }
            int v = int(at[axis]) + (minus ? -1 : 1);
            if (net.torus)
                v = (v + int(ext[axis])) % int(ext[axis]);
            else if (v < 0 || v >= int(ext[axis])) {
                nbr[d] = -1;
                continue;
            }
            net::Coord nc = c;
            (axis == 0 ? nc.x : axis == 1 ? nc.y : nc.z) = u32(v);
            nbr[d] = int(topo.chipAt(nc));
        }
    }
    return nbr;
}

/** Deterministic halo payload for (sender, direction, word, iteration). */
constexpr u64
haloWord(u32 chip, u32 dir, u32 j, u32 it)
{
    u64 x = (u64(chip) << 40) ^ (u64(dir) << 32) ^ (u64(j) << 8) ^ it;
    x *= 0x9E3779B97F4A7C15ull;
    x ^= x >> 29;
    return x;
}

/** [begin, end) slice of @p total for thread @p t of @p n. */
struct Slice
{
    u32 begin, end;
};

Slice
sliceOf(u32 total, u32 t, u32 n)
{
    return {u32(u64(total) * t / n), u32(u64(total) * (t + 1) / n)};
}

u64
fnv1a(u64 h, const void *data, size_t n)
{
    const u8 *p = static_cast<const u8 *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

u64
fnv1aU64(u64 h, u64 v)
{
    return fnv1a(h, &v, sizeof v);
}

/**
 * Fill the counters, attribution and fingerprint shared by both
 * workloads. The fingerprint hashes every chip's remote window and
 * the local result region, then the timing counters, so two runs are
 * byte-equivalent iff the fingerprints match.
 */
void
harvest(arch::System &sys, PhysAddr localBase, u32 localBytes,
        MultiChipResult *r)
{
    r->cycles = sys.now();
    r->instructions = sys.totalInstructions();
    const net::Fabric &f = sys.fabric();
    r->messages = f.messages();
    r->bytesMoved = f.bytesMoved();
    r->queueCycles = f.queueCycles();
    r->flitsInjected = f.flitsInjected();
    r->flitsDelivered = f.flitsDelivered();
    r->flitsInFlight = f.flitsInFlight();
    r->flitsDropped = f.flitsDropped();
    r->rerouted = f.rerouted();
    r->retransmits = f.retransmits();
    r->crcErrors = f.crcErrors();
    r->unroutable = f.unroutable();

    u64 h = 0xCBF29CE484222325ull;
    std::vector<u8> buf(arch::kRemoteWindowBytes);
    for (u32 c = 0; c < sys.numChips(); ++c) {
        const arch::Chip &chip = sys.chip(c);
        r->attr.add(chip.chipAttribution());
        chip.readPhys(sys.windowBase(), buf.data(),
                      arch::kRemoteWindowBytes);
        h = fnv1a(h, buf.data(), buf.size());
        if (localBytes) {
            chip.readPhys(localBase, buf.data(), localBytes);
            h = fnv1a(h, buf.data(), localBytes);
        }
    }
    h = fnv1aU64(h, r->cycles);
    h = fnv1aU64(h, r->instructions);
    h = fnv1aU64(h, r->messages);
    h = fnv1aU64(h, r->bytesMoved);
    h = fnv1aU64(h, r->queueCycles);
    h = fnv1aU64(h, r->flitsInjected);
    h = fnv1aU64(h, r->flitsDelivered);
    h = fnv1aU64(h, r->flitsDropped);
    h = fnv1aU64(h, r->rerouted);
    h = fnv1aU64(h, r->retransmits);
    r->fingerprint = h;
}

// --- Halo exchange ----------------------------------------------------------

struct HaloWorld
{
    u32 chip = 0;
    std::array<int, 6> nbr{};
    u32 words = 0;
    u32 iters = 0;
    PhysAddr windowBase = 0;
};

exec::GuestTask
haloThread(exec::GuestCtx &ctx, const HaloWorld &w)
{
    const u32 t = ctx.index();
    const u32 n = ctx.threads();
    const u32 slotBytes = w.words * 8;
    const u32 flagBase = 6 * slotBytes;
    const Slice s = sliceOf(w.words, t, n);
    u32 bar = 0;

    for (u32 it = 1; it <= w.iters; ++it) {
        // Send this thread's share of every outgoing face. Direction d
        // lands in the neighbor's opposite slot (d ^ 1), so the
        // receiver indexes its inbound faces by its own direction.
        for (u32 d = 0; d < 6; ++d) {
            if (w.nbr[d] < 0)
                continue;
            const u32 dst = u32(w.nbr[d]);
            const u32 off = (d ^ 1) * slotBytes;
            for (u32 j = s.begin; j < s.end; ++j) {
                co_await ctx.store(remoteEa(kIgDefault, dst, off + j * 8),
                                   haloWord(w.chip, d, j, it));
                co_await ctx.alu(2, true); // index + loop overhead
            }
            co_await ctx.branch();
        }
        co_await ctx.sync();
        // Barrier: every payload of this iteration is injected before
        // thread 0 posts the flags (per-path FIFO then guarantees the
        // flag lands after the payload at the receiver).
        co_await ctx.hwBarrier(bar++ & 1);
        if (t == 0) {
            for (u32 d = 0; d < 6; ++d) {
                if (w.nbr[d] < 0)
                    continue;
                co_await ctx.store(remoteEa(kIgDefault, u32(w.nbr[d]),
                                            flagBase + (d ^ 1) * 8),
                                   it);
            }
            co_await ctx.sync();
        }
        // Spin on the inbound flags, one direction per thread. A flag
        // is this chip's own window, so the load is local.
        for (u32 d = t; d < 6; d += n) {
            if (w.nbr[d] < 0)
                continue;
            const Addr flag =
                igAddr(kIgDefault, w.windowBase + flagBase + d * 8);
            while (co_await ctx.load(flag) < it)
                co_await ctx.branch();
        }
        co_await ctx.hwBarrier(bar++ & 1);
    }

    // Consume: checksum this thread's word-share of every inbound face
    // (only the final iteration's data is live in the slots).
    u64 sum = 0;
    for (u32 d = 0; d < 6; ++d) {
        if (w.nbr[d] < 0)
            continue;
        for (u32 j = s.begin; j < s.end; ++j) {
            sum += co_await ctx.load(
                igAddr(kIgDefault, w.windowBase + d * slotBytes + j * 8));
            co_await ctx.alu(2, true);
        }
    }
    co_await ctx.store(igAddr(kIgDefault, kResultBase + t * 8), sum);
    co_await ctx.sync();
}

// --- Distributed STREAM -----------------------------------------------------

struct StreamWorld
{
    u32 chip = 0;
    int src = -1; ///< +x neighbor holding our b[] slice (-1 = local)
    u32 words = 0;
    PhysAddr windowBase = 0;
    double scale = 3.0;
};

/** b[j] on chip @p c: small integers, exact in double. */
constexpr double
streamB(u32 c, u32 j)
{
    return double(c * 1024 + j + 1);
}

exec::GuestTask
streamThread(exec::GuestCtx &ctx, const StreamWorld &w)
{
    constexpr u32 kBatch = 4; // matches maxOutstandingMem
    const Slice s = sliceOf(w.words, ctx.index(), ctx.threads());
    const bool remote = w.src >= 0;

    for (u32 j = s.begin; j < s.end; j += kBatch) {
        const u32 m = std::min(kBatch, s.end - j);
        std::array<exec::MicroOp, kBatch> ops;
        for (u32 k = 0; k < m; ++k) {
            const u32 off = kStreamOff + (j + k) * 8;
            const Addr ea =
                remote ? remoteEa(kIgDefault, u32(w.src), off)
                       : igAddr(kIgDefault, w.windowBase + off);
            ops[k] = exec::MicroOp::load(ea, 8, true);
        }
        co_await ctx.batch(std::span<exec::MicroOp>(ops.data(), m));
        for (u32 k = 0; k < m; ++k) {
            co_await ctx.fpu(arch::FpuOp::Mul);
            const double b = std::bit_cast<double>(ops[k].result);
            co_await ctx.store(igAddr(kIgDefault, kABase + (j + k) * 8),
                               std::bit_cast<u64>(w.scale * b));
        }
        co_await ctx.alu(2, true); // index update
        co_await ctx.branch();
    }
    co_await ctx.sync();
}

// --- Shared runner ----------------------------------------------------------

void
checkConfig(const MultiChipConfig &cfg, const arch::SystemConfig &sc)
{
    if (cfg.threads == 0 || cfg.threads > sc.chip.usableThreads())
        fatal("multichip: %u guest threads on a %u-thread chip",
              cfg.threads, sc.chip.usableThreads());
    if (cfg.words == 0)
        fatal("multichip: words must be nonzero");
    if (cfg.iters == 0)
        fatal("multichip: iters must be nonzero");
    // Halo faces + flags live below the STREAM b[] slice; both must
    // fit in the 128 KB window.
    if (6 * cfg.words * 8 + 6 * 8 > kStreamOff)
        fatal("multichip: %u halo words overflow the window layout "
              "(max %u)",
              cfg.words, u32((kStreamOff - 48) / 48));
    if (kStreamOff + cfg.words * 8 > arch::kRemoteWindowBytes)
        fatal("multichip: %u STREAM words overflow the remote window",
              cfg.words);
}

RunExit
runGuests(arch::System &sys, u32 threads, u64 maxCycles,
          const std::function<exec::GuestFactory(u32)> &factoryFor)
{
    std::vector<std::unique_ptr<exec::GuestEngine>> engines;
    engines.reserve(sys.numChips());
    for (u32 c = 0; c < sys.numChips(); ++c) {
        engines.push_back(
            std::make_unique<exec::GuestEngine>(sys.chip(c)));
        engines.back()->spawn(threads, factoryFor(c));
    }
    const RunExit exit = sys.run(maxCycles ? maxCycles : kCycleNever);
    if (!(exit == RunExit::AllHalted))
        inform("multichip: run ended early (%s)",
               exit.diagnostic.empty() ? "cycle limit or signal"
                                       : exit.diagnostic.c_str());
    return exit;
}

} // namespace

arch::SystemConfig
MultiChipConfig::systemConfig() const
{
    arch::SystemConfig sc;
    ChipConfig &cc = sc.chip;
    cc.numThreads = 8;
    cc.threadsPerQuad = 4;
    cc.quadsPerICache = 2;
    cc.reservedThreads = 0;
    cc.numBanks = 16;
    cc.bankBytes = 64 * 1024;
    cc.obs = obs;
    cc.fault = chipFault;
    sc.fabric.net.dimX = dimX;
    sc.fabric.net.dimY = dimY;
    sc.fabric.net.dimZ = dimZ;
    sc.fabric.net.torus = torus;
    sc.fabric.faults = faults;
    if (fabricMaxRetries)
        sc.fabric.maxRetries = fabricMaxRetries;
    if (fabricRetryBackoff)
        sc.fabric.retryBackoff = fabricRetryBackoff;
    return sc;
}

MultiChipResult
runHaloExchange(const MultiChipConfig &cfg)
{
    const arch::SystemConfig sc = cfg.systemConfig();
    checkConfig(cfg, sc);
    arch::System sys(sc);
    const net::Topology topo(sc.fabric.net);
    const u32 n = sys.numChips();

    std::vector<HaloWorld> worlds(n);
    for (u32 c = 0; c < n; ++c)
        worlds[c] = {c, neighborsOf(topo, sc.fabric.net, c), cfg.words,
                     cfg.iters, sys.windowBase()};

    const RunExit exit = runGuests(
        sys, cfg.threads, cfg.maxCycles,
        [&worlds](u32 c) -> exec::GuestFactory {
            return [&w = worlds[c]](exec::GuestCtx &ctx) {
                return haloThread(ctx, w);
            };
        });

    MultiChipResult r;
    r.exitReason = exit.reason;
    r.exitDiagnostic = exit.diagnostic;
    harvest(sys, kResultBase, cfg.threads * 8, &r);

    // Host-side verification: the slots hold the last iteration's
    // payloads, the flags count iterations, and the per-thread
    // checksums sum to the expected total.
    bool ok = exit == RunExit::AllHalted;
    const u32 slotBytes = cfg.words * 8;
    for (u32 c = 0; c < n && ok; ++c) {
        const arch::Chip &chip = sys.chip(c);
        u64 expectSum = 0;
        u64 gotSum = 0;
        for (u32 d = 0; d < 6 && ok; ++d) {
            if (worlds[c].nbr[d] < 0)
                continue;
            const u32 sender = u32(worlds[c].nbr[d]);
            u64 flag = 0;
            chip.readPhys(sys.windowBase() + 6 * slotBytes + d * 8,
                          &flag, 8);
            ok = ok && flag == cfg.iters;
            for (u32 j = 0; j < cfg.words && ok; ++j) {
                u64 got = 0;
                chip.readPhys(sys.windowBase() + d * slotBytes + j * 8,
                              &got, 8);
                const u64 want = haloWord(sender, d ^ 1, j, cfg.iters);
                ok = got == want;
                expectSum += want;
            }
        }
        for (u32 t = 0; t < cfg.threads; ++t) {
            u64 v = 0;
            chip.readPhys(kResultBase + t * 8, &v, 8);
            gotSum += v;
        }
        ok = ok && gotSum == expectSum;
    }
    r.verified = ok;
    if (sc.chip.obs.anyOutput())
        sys.writeObservability();
    return r;
}

MultiChipResult
runDistributedStream(const MultiChipConfig &cfg)
{
    const arch::SystemConfig sc = cfg.systemConfig();
    checkConfig(cfg, sc);
    arch::System sys(sc);
    const net::Topology topo(sc.fabric.net);
    const u32 n = sys.numChips();

    std::vector<StreamWorld> worlds(n);
    for (u32 c = 0; c < n; ++c) {
        const std::array<int, 6> nbr =
            neighborsOf(topo, sc.fabric.net, c);
        worlds[c] = {c, nbr[u32(net::Dir::XPlus)], cfg.words,
                     sys.windowBase(), 3.0};
        for (u32 j = 0; j < cfg.words; ++j) {
            const u64 bits = std::bit_cast<u64>(streamB(c, j));
            sys.chip(c).writePhys(
                sys.windowBase() + kStreamOff + j * 8, &bits, 8);
        }
    }

    const RunExit exit = runGuests(
        sys, cfg.threads, cfg.maxCycles,
        [&worlds](u32 c) -> exec::GuestFactory {
            return [&w = worlds[c]](exec::GuestCtx &ctx) {
                return streamThread(ctx, w);
            };
        });

    MultiChipResult r;
    r.exitReason = exit.reason;
    r.exitDiagnostic = exit.diagnostic;
    harvest(sys, kABase, cfg.words * 8, &r);

    bool ok = exit == RunExit::AllHalted;
    for (u32 c = 0; c < n && ok; ++c) {
        const u32 src = worlds[c].src >= 0 ? u32(worlds[c].src) : c;
        for (u32 j = 0; j < cfg.words && ok; ++j) {
            u64 bits = 0;
            sys.chip(c).readPhys(kABase + j * 8, &bits, 8);
            ok = std::bit_cast<double>(bits) ==
                 worlds[c].scale * streamB(src, j);
        }
    }
    r.verified = ok;
    if (sc.chip.obs.anyOutput())
        sys.writeObservability();
    return r;
}

} // namespace cyclops::workloads
