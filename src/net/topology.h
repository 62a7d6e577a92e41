/**
 * @file
 * Multi-chip interconnect (paper section 2.2).
 *
 * Each Cyclops chip provides six input and six output links that
 * directly connect chips in a three-dimensional mesh or torus; the
 * links are 16 bits wide at 500 MHz (1 GB/s each, 12 GB/s of I/O per
 * chip), and a seventh link attaches a host computer (not modelled).
 * Large systems are built by replicating the chip in this regular
 * pattern — the cellular approach (the Blue Gene vision the paper
 * cites).
 *
 * This module models message timing over the fabric: dimension-order
 * routing, cut-through packet forwarding, and per-link occupancy
 * (contention). It is deliberately standalone — the paper states the
 * multi-chip system is not its focus — but complete enough for the
 * multichip example and capacity studies.
 */

#ifndef CYCLOPS_NET_TOPOLOGY_H
#define CYCLOPS_NET_TOPOLOGY_H

#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace cyclops::net
{

/** Output-port directions of one chip. */
enum class Dir : u8 { XPlus, XMinus, YPlus, YMinus, ZPlus, ZMinus };

inline constexpr u32 kNumDirs = 6; ///< mesh/torus links

/** Position of a chip in the 3-D grid. */
struct Coord
{
    u32 x = 0, y = 0, z = 0;
    bool operator==(const Coord &other) const = default;
};

/** How one directed fabric link is degraded. */
enum class LinkFaultKind : u8
{
    Dead,    ///< carries nothing; routing must detour around it
    Flaky,   ///< corrupts packets with probability flakyPpm / 1e6
    Derated, ///< bandwidth divided by derate (serialization stretched)
};

const char *linkFaultKindName(LinkFaultKind kind);

/** One degraded directed link (src chip -> neighbouring dst chip). */
struct LinkFault
{
    u32 src = 0;
    u32 dst = 0;
    LinkFaultKind kind = LinkFaultKind::Dead;

    /**
     * Flaky only: per-packet corruption probability in parts per
     * million (integer, so the draw is exact and deterministic), and
     * the conditional probability that a corruption escapes the
     * end-to-end checksum (silent data corruption instead of a NACK).
     */
    u32 flakyPpm = 0;
    u32 escapePpm = 0;

    /** Derated only: bandwidth divisor (>= 1). */
    u32 derate = 2;
};

/**
 * A set of link faults applied to a Fabric, either at construction
 * (atCycle == 0) or injected mid-run at the first epoch boundary at or
 * after atCycle. The map plus the topology fully determine routing and
 * every corruption draw, so faulty runs stay bit-reproducible.
 */
struct FabricFaultMap
{
    std::vector<LinkFault> links;
    u64 seed = 1;      ///< corruption-draw stream selector
    Cycle atCycle = 0; ///< 0 = degraded from the first cycle

    bool empty() const { return links.empty(); }
};

/** Topology configuration. */
struct NetConfig
{
    u32 dimX = 2, dimY = 2, dimZ = 2;
    bool torus = true;           ///< wraparound links (else mesh)
    u32 linkBytesPerCycle = 2;   ///< 16-bit links at the core clock
    u32 routerLatency = 4;       ///< cycles per hop through a switch
    u32 linkLatency = 1;         ///< wire cycles per hop
    u32 maxPacketBytes = 256;    ///< larger messages are segmented
    u64 clockHz = 500'000'000;

    u32 numChips() const { return dimX * dimY * dimZ; }
};

/**
 * Analytic interconnect model: DOR routing, hop counts, and
 * reservation-based link timing. The cycle-driven net::Fabric
 * (src/net/fabric.h) wraps this model and must agree with it exactly
 * at zero load — tests/test_fabric.cc enforces the identity.
 */
class Topology
{
  public:
    explicit Topology(const NetConfig &cfg = NetConfig{});

    const NetConfig &config() const { return cfg_; }

    u32 chipAt(Coord c) const;
    Coord coordOf(u32 chip) const;

    /**
     * Dimension-order (x, then y, then z) route from @p src to @p dst.
     * On a torus each dimension takes the shorter way around.
     * Returns the sequence of (chip, outgoing direction) hops.
     */
    std::vector<std::pair<u32, Dir>> route(u32 src, u32 dst) const;

    /** Number of hops between two chips under the routing above,
     *  counted without building the path (allocation-free). */
    u32 hops(u32 src, u32 dst) const;

    /** Whether the directed link (chip, dir) physically exists: its
     *  axis extent is > 1, the chip is not at a mesh edge, and it is
     *  not the redundant minus wire of an extent-2 torus axis. */
    bool linkExists(u32 chip, Dir dir) const;

    /** Neighbour reached over (chip, dir); only valid if it exists. */
    u32 neighborOf(u32 chip, Dir dir) const;

    /**
     * Fault-aware minimal route: dimension order relaxed per hop.
     * At each chip the lowest dimension with remaining distance whose
     * productive link is alive is taken, so the path stays minimal
     * (every hop reduces the remaining hop count) and terminates.
     * @p dead is indexed chip * kNumDirs + dir. Returns an empty path
     * when some chip on the way has no productive live link — the
     * caller falls back to routeDetour().
     */
    std::vector<std::pair<u32, Dir>> routeAdaptive(
        u32 src, u32 dst, const std::vector<bool> &dead) const;

    /**
     * Non-minimal detour: breadth-first shortest path over the live
     * links only, visiting directions in enum order so the result is a
     * pure function of (topology, fault map). Returns an empty path
     * when @p dst is unreachable (the fault map partitions the torus).
     */
    std::vector<std::pair<u32, Dir>> routeDetour(
        u32 src, u32 dst, const std::vector<bool> &dead) const;

    /**
     * Send @p bytes from @p src to @p dst starting at cycle @p now.
     * Cut-through forwarding: latency = hops * (router + link) +
     * serialization of the payload, plus queueing on busy links.
     * Messages above maxPacketBytes are segmented and pipelined.
     *
     * @return the cycle the last byte arrives at @p dst.
     */
    Cycle send(Cycle now, u32 src, u32 dst, u32 bytes);

    /** Idealized uncontended latency for a payload (tests, planning). */
    Cycle uncontendedLatency(u32 src, u32 dst, u32 bytes) const;

    /** Aggregate bytes moved so far. */
    u64 bytesMoved() const { return bytesMoved_.value(); }

    StatGroup &stats() { return stats_; }

  private:
    u32 linkIndex(u32 chip, Dir dir) const;
    s32 step(u32 from, u32 to, u32 dim) const;

    NetConfig cfg_;
    std::vector<Coord> coords_;   ///< by chip id: no division per lookup
    std::vector<Cycle> linkFree_; ///< chip x direction occupancy
    StatGroup stats_;
    Counter messages_;
    Counter bytesMoved_;
    Counter queueCycles_;
};

} // namespace cyclops::net

#endif // CYCLOPS_NET_TOPOLOGY_H
