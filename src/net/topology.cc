#include "net/topology.h"

#include <algorithm>

#include "common/log.h"

namespace cyclops::net
{

const char *
linkFaultKindName(LinkFaultKind kind)
{
    switch (kind) {
    case LinkFaultKind::Dead: return "dead";
    case LinkFaultKind::Flaky: return "flaky";
    case LinkFaultKind::Derated: return "derated";
    }
    return "?";
}

Topology::Topology(const NetConfig &cfg) : cfg_(cfg)
{
    if (cfg.dimX == 0 || cfg.dimY == 0 || cfg.dimZ == 0)
        fatal("fabric dimensions must be nonzero");
    if (cfg.linkBytesPerCycle == 0 || cfg.maxPacketBytes == 0)
        fatal("fabric link parameters must be nonzero");
    linkFree_.assign(size_t(cfg.numChips()) * kNumDirs, 0);
    coords_.resize(cfg.numChips());
    for (u32 chip = 0; chip < cfg.numChips(); ++chip) {
        coords_[chip].x = chip % cfg.dimX;
        coords_[chip].y = (chip / cfg.dimX) % cfg.dimY;
        coords_[chip].z = chip / (cfg.dimX * cfg.dimY);
    }
    stats_.addCounter("net.messages", &messages_);
    stats_.addCounter("net.bytes", &bytesMoved_);
    stats_.addCounter("net.queueCycles", &queueCycles_);
}

u32
Topology::chipAt(Coord c) const
{
    if (c.x >= cfg_.dimX || c.y >= cfg_.dimY || c.z >= cfg_.dimZ)
        fatal("coordinate (%u,%u,%u) outside the %ux%ux%u system", c.x,
              c.y, c.z, cfg_.dimX, cfg_.dimY, cfg_.dimZ);
    return (c.z * cfg_.dimY + c.y) * cfg_.dimX + c.x;
}

Coord
Topology::coordOf(u32 chip) const
{
    if (chip >= coords_.size())
        fatal("no chip %u in a %u-chip system", chip, cfg_.numChips());
    return coords_[chip];
}

s32
Topology::step(u32 from, u32 to, u32 dim) const
{
    if (from == to)
        return 0;
    if (!cfg_.torus)
        return to > from ? 1 : -1;
    // Torus: shorter way around; ties go plus.
    const s32 forward = s32((to + dim - from) % dim);
    const s32 backward = s32(dim) - forward;
    return forward <= backward ? 1 : -1;
}

std::vector<std::pair<u32, Dir>>
Topology::route(u32 src, u32 dst) const
{
    if (src >= cfg_.numChips() || dst >= cfg_.numChips())
        fatal("route endpoints outside the system");
    std::vector<std::pair<u32, Dir>> path;
    Coord at = coordOf(src);
    const Coord goal = coordOf(dst);

    auto walk = [&](u32 Coord::*axis, u32 dim, Dir plus, Dir minus) {
        while (at.*axis != goal.*axis) {
            const s32 dir = step(at.*axis, goal.*axis, dim);
            path.emplace_back(chipAt(at), dir > 0 ? plus : minus);
            at.*axis = u32((s32(at.*axis) + dir + s32(dim)) % s32(dim));
        }
    };
    walk(&Coord::x, cfg_.dimX, Dir::XPlus, Dir::XMinus);
    walk(&Coord::y, cfg_.dimY, Dir::YPlus, Dir::YMinus);
    walk(&Coord::z, cfg_.dimZ, Dir::ZPlus, Dir::ZMinus);
    return path;
}

u32
Topology::hops(u32 src, u32 dst) const
{
    // route()'s walk without the path: each axis takes the distance
    // step() walks, which on a torus is the shorter way around.
    // coordOf() rejects endpoints outside the system.
    const Coord a = coordOf(src);
    const Coord b = coordOf(dst);
    auto axis = [&](u32 from, u32 to, u32 dim) {
        if (from == to)
            return 0u;
        if (!cfg_.torus)
            return to > from ? to - from : from - to;
        const u32 forward = to > from ? to - from : to + dim - from;
        return std::min(forward, dim - forward);
    };
    return axis(a.x, b.x, cfg_.dimX) + axis(a.y, b.y, cfg_.dimY) +
           axis(a.z, b.z, cfg_.dimZ);
}

u32
Topology::linkIndex(u32 chip, Dir dir) const
{
    return chip * kNumDirs + u32(dir);
}

bool
Topology::linkExists(u32 chip, Dir dir) const
{
    const u32 d = u32(dir);
    if (d >= kNumDirs)
        return false;
    const u32 extent[3] = {cfg_.dimX, cfg_.dimY, cfg_.dimZ};
    const Coord c = coordOf(chip);
    const u32 coord[3] = {c.x, c.y, c.z};
    const u32 axis = d / 2;
    const bool minus = (d % 2) != 0;
    if (extent[axis] <= 1)
        return false;
    if (!cfg_.torus && (minus ? coord[axis] == 0
                              : coord[axis] == extent[axis] - 1))
        return false;
    // On an extent-2 torus both directions reach the same neighbour
    // and step() breaks the tie toward plus: the minus wire never
    // carries traffic and does not exist as a distinct link.
    if (cfg_.torus && extent[axis] == 2 && minus)
        return false;
    return true;
}

u32
Topology::neighborOf(u32 chip, Dir dir) const
{
    const u32 d = u32(dir);
    const u32 extent[3] = {cfg_.dimX, cfg_.dimY, cfg_.dimZ};
    const u32 axis = d / 2;
    const bool minus = (d % 2) != 0;
    Coord c = coordOf(chip);
    u32 *coord[3] = {&c.x, &c.y, &c.z};
    *coord[axis] = minus
        ? (*coord[axis] + extent[axis] - 1) % extent[axis]
        : (*coord[axis] + 1) % extent[axis];
    return chipAt(c);
}

std::vector<std::pair<u32, Dir>>
Topology::routeAdaptive(u32 src, u32 dst,
                        const std::vector<bool> &dead) const
{
    if (src >= cfg_.numChips() || dst >= cfg_.numChips())
        fatal("route endpoints outside the system");
    std::vector<std::pair<u32, Dir>> path;
    Coord at = coordOf(src);
    const Coord goal = coordOf(dst);
    const u32 extent[3] = {cfg_.dimX, cfg_.dimY, cfg_.dimZ};
    static constexpr Dir kPlus[3] = {Dir::XPlus, Dir::YPlus, Dir::ZPlus};
    static constexpr Dir kMinus[3] = {Dir::XMinus, Dir::YMinus,
                                      Dir::ZMinus};

    while (!(at == goal)) {
        u32 cur[3] = {at.x, at.y, at.z};
        const u32 tgt[3] = {goal.x, goal.y, goal.z};
        bool moved = false;
        // Relaxed dimension order: lowest dimension with remaining
        // distance whose productive link is alive. Every hop still
        // reduces the remaining distance, so the walk terminates.
        for (u32 axis = 0; axis < 3 && !moved; ++axis) {
            if (cur[axis] == tgt[axis])
                continue;
            const s32 dir = step(cur[axis], tgt[axis], extent[axis]);
            const Dir out = dir > 0 ? kPlus[axis] : kMinus[axis];
            const u32 here = chipAt(at);
            if (!linkExists(here, out) || dead[linkIndex(here, out)])
                continue;
            path.emplace_back(here, out);
            cur[axis] = u32((s32(cur[axis]) + dir + s32(extent[axis])) %
                            s32(extent[axis]));
            at = Coord{cur[0], cur[1], cur[2]};
            moved = true;
        }
        if (!moved)
            return {}; // stuck: no minimal alternative from here
    }
    return path;
}

std::vector<std::pair<u32, Dir>>
Topology::routeDetour(u32 src, u32 dst,
                      const std::vector<bool> &dead) const
{
    if (src >= cfg_.numChips() || dst >= cfg_.numChips())
        fatal("route endpoints outside the system");
    const u32 chips = cfg_.numChips();
    constexpr u32 kUnvisited = ~0u;
    std::vector<u32> parent(chips, kUnvisited);
    std::vector<Dir> parentDir(chips, Dir::XPlus);
    std::vector<u32> frontier{src};
    parent[src] = src;
    for (size_t head = 0; head < frontier.size(); ++head) {
        const u32 here = frontier[head];
        if (here == dst)
            break;
        for (u32 d = 0; d < kNumDirs; ++d) {
            const Dir out = Dir(d);
            if (!linkExists(here, out) || dead[linkIndex(here, out)])
                continue;
            const u32 next = neighborOf(here, out);
            if (parent[next] != kUnvisited)
                continue;
            parent[next] = here;
            parentDir[next] = out;
            frontier.push_back(next);
        }
    }
    if (parent[dst] == kUnvisited)
        return {}; // partitioned: no live path at all
    std::vector<std::pair<u32, Dir>> path;
    for (u32 here = dst; here != src; here = parent[here])
        path.emplace_back(parent[here], parentDir[here]);
    std::reverse(path.begin(), path.end());
    return path;
}

Cycle
Topology::uncontendedLatency(u32 src, u32 dst, u32 bytes) const
{
    if (src == dst)
        return 0;
    const u32 h = hops(src, dst);
    const Cycle perHop = cfg_.routerLatency + cfg_.linkLatency;
    const Cycle serialization =
        (bytes + cfg_.linkBytesPerCycle - 1) / cfg_.linkBytesPerCycle;
    return Cycle(h) * perHop + serialization;
}

Cycle
Topology::send(Cycle now, u32 src, u32 dst, u32 bytes)
{
    if (bytes == 0)
        fatal("cannot send an empty message");
    ++messages_;
    bytesMoved_ += bytes;
    if (src == dst)
        return now;

    const auto path = route(src, dst);
    const Cycle perHop = cfg_.routerLatency + cfg_.linkLatency;

    Cycle delivered = now;
    u32 remaining = bytes;
    Cycle packetStart = now;
    while (remaining > 0) {
        const u32 packet = std::min(remaining, cfg_.maxPacketBytes);
        const Cycle serialization =
            (packet + cfg_.linkBytesPerCycle - 1) /
            cfg_.linkBytesPerCycle;
        // Cut-through: the header advances one hop per (router+link);
        // each traversed link is occupied for the serialization time
        // starting when the header reaches it.
        Cycle headArrives = packetStart;
        for (const auto &[chip, dir] : path) {
            Cycle &freeAt = linkFree_[linkIndex(chip, dir)];
            const Cycle start = std::max(headArrives, freeAt);
            queueCycles_ += start - headArrives;
            freeAt = start + serialization;
            headArrives = start + perHop;
        }
        delivered = headArrives + serialization;
        // Next packet can follow as soon as the first link drains.
        packetStart = packetStart + serialization;
        remaining -= packet;
    }
    return delivered;
}

} // namespace cyclops::net
