#include "net/fabric.h"

#include <algorithm>

#include "common/log.h"

namespace cyclops::net
{

namespace
{

/** Canonical registered link index for a (src, dst) neighbour pair, or
 *  ~0u when no physical directed link connects them. */
u32
findLink(const Topology &topo, u32 src, u32 dst)
{
    for (u32 d = 0; d < kNumDirs; ++d) {
        if (topo.linkExists(src, Dir(d)) &&
            topo.neighborOf(src, Dir(d)) == dst)
            return src * kNumDirs + d;
    }
    return ~0u;
}

/** splitmix64 finalizer: the corruption-draw hash. */
u64
mix64(u64 x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

constexpr u32 kPpmScale = 1'000'000;

} // namespace

std::string
checkFaultMap(const NetConfig &net, const FabricFaultMap &map)
{
    const Topology topo(net);
    std::vector<u8> seen(size_t(net.numChips()) * kNumDirs, 0);
    for (const LinkFault &f : map.links) {
        if (f.src >= net.numChips() || f.dst >= net.numChips())
            return strprintf("link fault %u->%u outside the %u-chip "
                             "system", f.src, f.dst, net.numChips());
        if (f.src == f.dst)
            return strprintf("link fault %u->%u is self-addressed",
                             f.src, f.dst);
        const u32 idx = findLink(topo, f.src, f.dst);
        if (idx == ~0u)
            return strprintf("no fabric link %u->%u in a %ux%ux%u %s",
                             f.src, f.dst, net.dimX, net.dimY, net.dimZ,
                             net.torus ? "torus" : "mesh");
        if (seen[idx])
            return strprintf("link %u->%u degraded twice", f.src,
                             f.dst);
        seen[idx] = 1;
        if (f.kind == LinkFaultKind::Flaky &&
            (f.flakyPpm > kPpmScale || f.escapePpm > kPpmScale))
            return strprintf("link %u->%u: flaky/escape probability "
                             "above 1000000 ppm", f.src, f.dst);
        if (f.kind == LinkFaultKind::Derated && f.derate == 0)
            return strprintf("link %u->%u: derate divisor must be "
                             ">= 1", f.src, f.dst);
    }
    return "";
}

Fabric::Fabric(const FabricConfig &cfg) : cfg_(cfg), topo_(cfg.net)
{
    if (cfg.reqHeaderBytes == 0 || cfg.respHeaderBytes == 0)
        fatal("fabric protocol headers must be nonzero");
    const u32 chips = cfg.net.numChips();
    linkFree_.assign(size_t(chips) * kNumDirs, 0);
    pairMessages_.assign(size_t(chips) * chips, 0);
    pairBytes_.assign(size_t(chips) * chips, 0);
    pairFlits_.assign(size_t(chips) * chips, 0);
    pairLinkFlits_.assign(size_t(chips) * chips, 0);
    pairInOrder_.assign(size_t(chips) * chips, 0);
    routeCache_.assign(size_t(chips) * chips, {});
    routeKnown_.assign(size_t(chips) * chips, 0);
    pairRerouted_.assign(size_t(chips) * chips, 0);
    ledger_.assign(kLedgerCycles, {});
    stats_.addCounter("fabric.messages", &messages_);
    stats_.addCounter("fabric.bytes", &bytesMoved_);
    stats_.addCounter("fabric.queueCycles", &queueCycles_);
    stats_.addCounter("fabric.flitsInjected", &flitsInjectedStat_);
    stats_.addCounter("fabric.flitsDelivered", &flitsDeliveredStat_);
    stats_.addCounter("fabric.droppedFlits", &flitsDroppedStat_);
    stats_.addCounter("fabric.rerouted", &rerouted_);
    stats_.addCounter("fabric.retransmits", &retransmits_);
    stats_.addCounter("fabric.retries", &retries_);
    stats_.addCounter("fabric.crcErrors", &crcErrors_);
    stats_.addCounter("fabric.unroutable", &unroutable_);
    stats_.addGauge("fabric.flitsInFlight",
                    [this] { return flitsInFlight_; });
    stats_.addHistogram("fabric.latency.total", &latencyTotal_);
    stats_.addHistogram("fabric.latency.queue", &latencyQueue_);
    stats_.addHistogram("fabric.latency.wire", &latencyWire_);
    registerLinkStats();
    if (!cfg_.faults.empty()) {
        const std::string err = checkFaultMap(cfg_.net, cfg_.faults);
        if (!err.empty())
            fatal("%s", err.c_str());
        if (cfg_.faults.atCycle == 0)
            applyFaultMap();
        else
            faultsArmed_ = true; // applied at the armed epoch boundary
    }
}

/**
 * Build the per-link telemetry records and register the stats of every
 * link that physically exists: a direction is present iff its axis
 * extent is > 1 and (torus, or the chip is not at the mesh edge).
 * links_ never resizes after this (StatGroup holds raw pointers).
 */
void
Fabric::registerLinkStats()
{
    const u32 chips = cfg_.net.numChips();
    links_.resize(size_t(chips) * kNumDirs);
    for (u32 chip = 0; chip < chips; ++chip) {
        for (u32 d = 0; d < kNumDirs; ++d) {
            Link &link = links_[linkIndex(chip, Dir(d))];
            link.src = chip;
            link.dir = Dir(d);
            if (!topo_.linkExists(chip, Dir(d)))
                continue;
            link.dst = topo_.neighborOf(chip, Dir(d));
            link.exists = true;
            link.track = numLinks_++;
            const std::string name =
                strprintf("fabric.link.%u->%u", chip, link.dst);
            trackNames_.push_back(strprintf("link.%u->%u", chip,
                                            link.dst));
            occTrackNames_.push_back(strprintf("occ.%u->%u", chip,
                                               link.dst));
            stats_.addCounter(name + ".flits", &link.flits);
            stats_.addCounter(name + ".busyCycles", &link.busyCycles);
            stats_.addCounter(name + ".stallCycles", &link.stallCycles);
            stats_.addCounter(name + ".occFlitCycles",
                              &link.occFlitCycles);
            const u32 idx = linkIndex(chip, Dir(d));
            stats_.addGauge(name + ".occupancy", [this, idx] {
                const Cycle freeAt = linkFree_[idx];
                return freeAt > lastAdvance_ ? freeAt - lastAdvance_
                                             : 0;
            });
            stats_.addGauge(name + ".occPeak",
                            [this, idx] { return links_[idx].occPeak; });
        }
    }
}

u32
Fabric::linkIndex(u32 chip, Dir dir) const
{
    return chip * kNumDirs + u32(dir);
}

/**
 * Translate the fault map into per-link lookup tables and invalidate
 * the route cache. Called from the constructor (atCycle == 0) or from
 * advance() at the first epoch boundary past atCycle; either way the
 * application point is a pure function of the configuration.
 */
void
Fabric::applyFaultMap()
{
    const u32 chips = cfg_.net.numChips();
    const size_t nlinks = size_t(chips) * kNumDirs;
    deadLink_.assign(nlinks, false);
    flakyPpm_.assign(nlinks, 0);
    escapePpm_.assign(nlinks, 0);
    derate_.assign(nlinks, 1);
    linkPktSeq_.assign(nlinks, 0);
    for (const LinkFault &f : cfg_.faults.links) {
        const u32 idx = findLink(topo_, f.src, f.dst);
        if (idx == ~0u)
            fatal("fabric fault names a missing link %u->%u", f.src,
                  f.dst);
        switch (f.kind) {
        case LinkFaultKind::Dead:
            deadLink_[idx] = true;
            break;
        case LinkFaultKind::Flaky:
            flakyPpm_[idx] = f.flakyPpm;
            escapePpm_[idx] = f.escapePpm;
            break;
        case LinkFaultKind::Derated:
            derate_[idx] = std::max(1u, f.derate);
            break;
        }
    }
    const size_t pairs = size_t(chips) * chips;
    routeCache_.assign(pairs, {});
    routeKnown_.assign(pairs, 0);
    pairRerouted_.assign(pairs, 0);
    faultsActive_ = true;
    faultsArmed_ = false;
}

/**
 * Route for a pair, cached: the DOR path when it crosses no dead link
 * (always, while no fault map is active), else the relaxed-dimension-
 * order minimal path, else the breadth-first detour. An empty cached
 * path means the destination is unreachable (partition).
 */
const std::vector<std::pair<u32, Dir>> &
Fabric::routeFor(u32 src, u32 dst)
{
    const size_t pi = pairIndex(src, dst);
    if (!routeKnown_[pi]) {
        routeKnown_[pi] = 1;
        auto dor = topo_.route(src, dst);
        bool blocked = false;
        for (const auto &[chip, dir] : dor) {
            if (faultsActive_ && deadLink_[linkIndex(chip, dir)]) {
                blocked = true;
                break;
            }
        }
        if (!blocked) {
            routeCache_[pi] = std::move(dor);
        } else {
            pairRerouted_[pi] = 1;
            auto alt = topo_.routeAdaptive(src, dst, deadLink_);
            if (alt.empty())
                alt = topo_.routeDetour(src, dst, deadLink_);
            routeCache_[pi] = std::move(alt);
        }
    }
    return routeCache_[pi];
}

bool
Fabric::drawCorrupt(u32 linkIdx, bool *escaped)
{
    const u64 n = linkPktSeq_[linkIdx]++;
    const u64 x = mix64(cfg_.faults.seed ^
                        (u64(linkIdx) * 0x9E3779B97F4A7C15ULL) ^
                        (n * 0xBF58476D1CE4E5B9ULL));
    if (x % kPpmScale >= flakyPpm_[linkIdx])
        return false;
    // Conditional escape draw from the untouched high bits: the
    // corruption evades the end-to-end checksum (silent data
    // corruption) instead of triggering a NACK.
    *escaped = (x >> 32) % kPpmScale < escapePpm_[linkIdx];
    return true;
}

Cycle
Fabric::backoff(u32 attempt) const
{
    return cfg_.retryBackoff << std::min(attempt, cfg_.retryBackoffCap);
}

/**
 * The sender's retry timer fires maxRetries times against a
 * destination with no live path, doubling each wait; the message is
 * then abandoned. No flit ever crosses a link, so the flit ledger is
 * untouched — only the attempt is recorded.
 */
Delivery
Fabric::injectUnroutable(Cycle now, u32 src, u32 dst)
{
    ++unroutable_;
    retries_ += cfg_.maxRetries;
    Delivery d{now, now};
    d.ok = false;
    d.retries = cfg_.maxRetries;
    Cycle t = now;
    for (u32 a = 0; a <= cfg_.maxRetries; ++a)
        t += cfg_.retryTimeout << std::min(a, cfg_.retryBackoffCap);
    d.accepted = t;
    d.delivered = t;
    return d;
}

u64
Fabric::transmit(Cycle start,
                 const std::vector<std::pair<u32, Dir>> &path, u32 bytes,
                 u64 flow, Cycle *accepted, Cycle *delivered,
                 bool *corrupt, bool *escaped)
{
    // Identical to Topology::send so the zero-load latency matches
    // uncontendedLatency() exactly; additionally tracks the first-link
    // drain time (backpressure) and the flit ledger. Every fault-map
    // lookup is guarded by faultsActive_, and all degradation factors
    // are identities when the map is empty, so the healthy fabric's
    // arithmetic is bit-for-bit unchanged.
    const Cycle perHop = cfg_.net.routerLatency + cfg_.net.linkLatency;
    const u32 lbpc = cfg_.net.linkBytesPerCycle;
    const bool tracing = tracer_ && tracer_->on(TraceCat::Net);

    u64 flits = 0;
    u32 remaining = bytes;
    Cycle packetStart = start;
    bool firstPacket = true;
    while (remaining > 0) {
        const u32 packet = std::min(remaining, cfg_.net.maxPacketBytes);
        const Cycle serialization = (packet + lbpc - 1) / lbpc;
        flits += serialization;
        // Cut-through: the header advances one hop per (router+link);
        // each traversed link is occupied for the serialization time
        // starting when the header reaches it. A derated link holds
        // the wire derate times longer per flit.
        Cycle headArrives = packetStart;
        Cycle firstOcc = serialization;
        Cycle tailOcc = serialization;
        bool firstLink = true;
        for (size_t hop = 0; hop < path.size(); ++hop) {
            const auto &[chip, dir] = path[hop];
            const u32 idx = linkIndex(chip, dir);
            const Cycle occupancy = faultsActive_
                ? serialization * derate_[idx]
                : serialization;
            Cycle &freeAt = linkFree_[idx];
            const Cycle xmit = std::max(headArrives, freeAt);
            const Cycle stall = xmit - headArrives;
            queueCycles_ += stall;
            freeAt = xmit + occupancy;

            Link &link = links_[idx];
            link.flits += serialization;
            link.busyCycles += occupancy;
            link.stallCycles += stall;
            link.occFlitCycles += stall * serialization;
            // Ingress backlog this packet observed: everything queued
            // ahead of it plus itself.
            link.occPeak = std::max(link.occPeak,
                                    u64(stall + occupancy));
            if (faultsActive_ && flakyPpm_[idx] != 0) {
                bool esc = false;
                if (drawCorrupt(idx, &esc)) {
                    *corrupt = true;
                    if (esc)
                        *escaped = true;
                }
            }
            if (tracing) {
                tracer_->complete(TraceCat::Net, link.track, "pkt",
                                  xmit, occupancy, flow);
                tracer_->counter(TraceCat::Net, link.track,
                                 occTrackNames_[link.track].c_str(),
                                 xmit, stall + occupancy);
                if (firstPacket && firstLink)
                    tracer_->flowBegin(TraceCat::Net, link.track,
                                       "msg", xmit, flow);
                if (remaining == packet && hop + 1 == path.size())
                    tracer_->flowEnd(TraceCat::Net, link.track, "msg",
                                     freeAt, flow);
            }

            if (firstLink) {
                *accepted = freeAt;
                firstOcc = occupancy;
                firstLink = false;
            }
            tailOcc = occupancy;
            headArrives = xmit + perHop;
        }
        *delivered = headArrives + tailOcc;
        // Next packet can follow as soon as the first link drains.
        packetStart = packetStart + firstOcc;
        remaining -= packet;
        firstPacket = false;
    }
    return flits;
}

void
Fabric::addInFlight(Cycle at, u64 flits, bool dropped)
{
    // A cycle behind the base wraps to a huge distance: far.
    if (at - ledgerBase_ < kLedgerCycles) {
        LedgerSlot &slot = ledger_[at & (kLedgerCycles - 1)];
        (dropped ? slot.dropped : slot.delivered) += flits;
        ledgerFlits_ += flits;
    } else {
        farFlights_.push({at, flits, dropped});
    }
}

Delivery
Fabric::inject(Cycle now, u32 src, u32 dst, u32 bytes)
{
    if (src >= cfg_.net.numChips() || dst >= cfg_.net.numChips())
        fatal("fabric endpoints outside the system");
    if (src == dst)
        fatal("fabric cannot route a self-addressed message");
    if (bytes == 0)
        fatal("cannot inject an empty message");
    const size_t pi = pairIndex(src, dst);
    ++messages_;
    bytesMoved_ += bytes;
    pairMessages_[pi] += 1;
    pairBytes_[pi] += bytes;

    const u64 flow = msgSeq_++;
    const std::vector<std::pair<u32, Dir>> &path = routeFor(src, dst);
    if (path.empty())
        return injectUnroutable(now, src, dst);
    if (pairRerouted_[pi])
        ++rerouted_;

    const Cycle perHop = cfg_.net.routerLatency + cfg_.net.linkLatency;
    Delivery d{now, now};
    u32 attempt = 0;
    Cycle attemptStart = now;
    while (true) {
        bool corrupt = false;
        bool escaped = false;
        Cycle accepted = attemptStart;
        Cycle delivered = attemptStart;
        const u64 flits = transmit(attemptStart, path, bytes, flow,
                                   &accepted, &delivered, &corrupt,
                                   &escaped);
        flitsInjected_ += flits;
        flitsInjectedStat_ += flits;
        flitsInFlight_ += flits;
        pairFlits_[pi] += flits;
        pairLinkFlits_[pi] += flits * path.size();
        if (attempt == 0)
            d.accepted = accepted;
        d.retries = attempt;
        if (!corrupt || escaped) {
            // Delivered — possibly with a checksum escape the caller
            // turns into silent data corruption. The reorder buffer
            // releases messages in sequence order, so a pair's
            // deliveries stay FIFO even when a retransmitted earlier
            // message finishes its traversal late.
            if (faultsActive_)
                delivered = std::max(delivered, pairInOrder_[pi]);
            pairInOrder_[pi] = std::max(pairInOrder_[pi], delivered);
            addInFlight(delivered, flits, false);
            d.delivered = delivered;
            d.corrupted = corrupt && escaped;
            break;
        }
        // The checksum caught the corruption: the receiver NACKs and
        // the whole attempt's flits retire into the dropped ledger.
        ++crcErrors_;
        addInFlight(delivered, flits, true);
        if (attempt >= cfg_.maxRetries) {
            d.ok = false;
            d.delivered = delivered;
            break;
        }
        ++retransmits_;
        ++retries_;
        // NACK flight time back to the sender (uncontended control
        // channel), then exponential backoff before the retransmit.
        const Cycle nack = delivered + Cycle(path.size()) * perHop + 1;
        attemptStart = nack + backoff(attempt);
        ++attempt;
    }

    if (d.ok) {
        latencyTotal_.sample(d.delivered - now);
        const Cycle wire = topo_.uncontendedLatency(src, dst, bytes);
        latencyWire_.sample(wire);
        latencyQueue_.sample((d.delivered - now) - wire);
    }
    return d;
}

void
Fabric::advance(Cycle at)
{
    if (faultsArmed_ && at != kCycleNever && at >= cfg_.faults.atCycle)
        applyFaultMap();
    u64 delivered = 0;
    u64 dropped = 0;
    while (!farFlights_.empty() && farFlights_.top().at <= at) {
        const Flight &f = farFlights_.top();
        (f.dropped ? dropped : delivered) += f.flits;
        farFlights_.pop();
    }
    if (at >= ledgerBase_) {
        const Cycle span = at - ledgerBase_;
        const Cycle n = span >= kLedgerCycles ? kLedgerCycles : span + 1;
        for (Cycle i = 0; i < n && ledgerFlits_ != 0; ++i) {
            LedgerSlot &slot =
                ledger_[(ledgerBase_ + i) & (kLedgerCycles - 1)];
            delivered += slot.delivered;
            dropped += slot.dropped;
            ledgerFlits_ -= slot.delivered + slot.dropped;
            slot = {};
        }
        // A drain leaves the base where it is: the ring is empty, and
        // at + 1 would wrap.
        if (at != kCycleNever)
            ledgerBase_ = at + 1;
    }
    flitsInFlight_ -= delivered + dropped;
    flitsDelivered_ += delivered;
    flitsDeliveredStat_ += delivered;
    flitsDropped_ += dropped;
    flitsDroppedStat_ += dropped;
    // Anchor for the occupancy gauges: backlog is whatever work each
    // link still holds beyond the cycle the system has advanced to.
    if (at != kCycleNever)
        lastAdvance_ = std::max(lastAdvance_, at);
    checkConservation(at);
}

void
Fabric::checkConservation(Cycle at) const
{
    if (flitsInjected_ ==
        flitsDelivered_ + flitsInFlight_ + flitsDropped_)
        return;
    fatal("fabric flit conservation violated at cycle %llu: "
          "injected %llu != delivered %llu + in-flight %llu "
          "+ dropped %llu",
          static_cast<unsigned long long>(at),
          static_cast<unsigned long long>(flitsInjected_),
          static_cast<unsigned long long>(flitsDelivered_),
          static_cast<unsigned long long>(flitsInFlight_),
          static_cast<unsigned long long>(flitsDropped_));
}

void
Fabric::drain()
{
    advance(kCycleNever);
    // Every link is idle once drained: advance the occupancy anchor
    // past the last reservation so the backlog gauges read zero.
    for (const Cycle freeAt : linkFree_)
        lastAdvance_ = std::max(lastAdvance_, freeAt);
}

} // namespace cyclops::net
