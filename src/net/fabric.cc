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
    numChips_ = chips;
    linkFree_.assign(size_t(chips) * kNumDirs, 0);
    const Cycle perHop = cfg.net.routerLatency + cfg.net.linkLatency;
    pairs_.resize(size_t(chips) * chips);
    for (u32 src = 0; src < chips; ++src) {
        for (u32 dst = 0; dst < chips; ++dst) {
            Pair &p = pairs_[pairIndex(src, dst)];
            p.hops = topo_.hops(src, dst);
            p.wireBase = Cycle(p.hops) * perHop;
        }
    }
    // One packet's serialization per size; larger messages divide.
    const u32 lbpc = cfg.net.linkBytesPerCycle;
    serCycles_.resize(std::min(cfg.net.maxPacketBytes, 4096u) + 1);
    for (u32 b = 0; b < serCycles_.size(); ++b)
        serCycles_[b] = (b + lbpc - 1) / lbpc;
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
    for (Pair &p : pairs_) {
        p.links.clear();
        p.known = false;
        p.rerouted = false;
    }
    faultsActive_ = true;
    faultsArmed_ = false;
}

/**
 * Resolve a pair's route: the DOR path when it crosses no dead link
 * (always, while no fault map is active), else the relaxed-dimension-
 * order minimal path, else the breadth-first detour. An empty route
 * means the destination is unreachable (partition).
 */
void
Fabric::resolveRoute(Pair &pair, u32 src, u32 dst)
{
    pair.known = true;
    auto path = topo_.route(src, dst);
    bool blocked = false;
    for (const auto &[chip, dir] : path) {
        if (faultsActive_ && deadLink_[linkIndex(chip, dir)]) {
            blocked = true;
            break;
        }
    }
    if (blocked) {
        pair.rerouted = true;
        path = topo_.routeAdaptive(src, dst, deadLink_);
        if (path.empty())
            path = topo_.routeDetour(src, dst, deadLink_);
    }
    pair.links.clear();
    for (const auto &[chip, dir] : path)
        pair.links.push_back(linkIndex(chip, dir));
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
Fabric::injectUnroutable(Cycle now)
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

template <bool kFaults>
u64
Fabric::transmit(Cycle start, const std::vector<u32> &path, u32 bytes,
                 u64 flow, Cycle *accepted, Cycle *delivered,
                 bool *corrupt, bool *escaped)
{
    // Identical to Topology::send so the zero-load latency matches
    // uncontendedLatency() exactly; additionally tracks the first-link
    // drain time (backpressure) and the flit ledger. Every fault-map
    // lookup is compiled in only with kFaults, and all degradation
    // factors are identities when the map is empty, so the healthy
    // fabric's arithmetic is bit-for-bit unchanged.
    const Cycle perHop = cfg_.net.routerLatency + cfg_.net.linkLatency;
    const u32 maxPacket = cfg_.net.maxPacketBytes;
    const bool tracing = tracer_ && tracer_->on(TraceCat::Net);
    const u32 *const hopLinks = path.data();
    const size_t hops = path.size();

    u64 flits = 0;
    u32 remaining = bytes;
    Cycle packetStart = start;
    bool firstPacket = true;
    while (remaining > 0) {
        const u32 packet = remaining < maxPacket ? remaining : maxPacket;
        const Cycle serialization = this->serialization(packet);
        flits += serialization;
        // Cut-through: the header advances one hop per (router+link);
        // each traversed link is occupied for the serialization time
        // starting when the header reaches it. A derated link holds
        // the wire derate times longer per flit.
        Cycle headArrives = packetStart;
        Cycle firstOcc = serialization;
        Cycle tailOcc = serialization;
        for (size_t hop = 0; hop < hops; ++hop) {
            const u32 idx = hopLinks[hop];
            const Cycle occupancy =
                kFaults ? serialization * derate_[idx] : serialization;
            const Cycle xmit =
                reserveLink(idx, headArrives, serialization, occupancy);
            const Cycle freeAt = xmit + occupancy;
            const Cycle stall = xmit - headArrives;
            if (kFaults && flakyPpm_[idx] != 0) {
                bool esc = false;
                if (drawCorrupt(idx, &esc)) {
                    *corrupt = true;
                    if (esc)
                        *escaped = true;
                }
            }
            if (tracing) [[unlikely]]
                traceHop(links_[idx], xmit, occupancy, stall, flow,
                         firstPacket && hop == 0,
                         remaining == packet && hop + 1 == hops);

            if (hop == 0) {
                *accepted = freeAt;
                firstOcc = occupancy;
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

/** The "net" trace records of one packet crossing one link. */
void
Fabric::traceHop(const Link &link, Cycle xmit, Cycle occupancy,
                 Cycle stall, u64 flow, bool first, bool last)
{
    tracer_->complete(TraceCat::Net, link.track, "pkt", xmit, occupancy,
                      flow);
    tracer_->counter(TraceCat::Net, link.track,
                     occTrackNames_[link.track].c_str(), xmit,
                     stall + occupancy);
    if (first)
        tracer_->flowBegin(TraceCat::Net, link.track, "msg", xmit, flow);
    if (last)
        tracer_->flowEnd(TraceCat::Net, link.track, "msg", xmit + occupancy,
                         flow);
}

void
Fabric::badInject(u32 src, u32 dst) const
{
    if (src >= numChips_ || dst >= numChips_)
        fatal("fabric endpoints outside the system");
    if (src == dst)
        fatal("fabric cannot route a self-addressed message");
    fatal("cannot inject an empty message");
}

/**
 * inject() past its inline case: the pair's first message, an active
 * fault map, a multi-packet message or "net" tracing.
 */
Delivery
Fabric::injectSlow(Cycle now, Pair &p, u32 src, u32 dst, u32 bytes,
                   u64 flow)
{
    if (!p.known)
        resolveRoute(p, src, dst);
    if (faultsActive_)
        return injectFaulty(now, p, bytes, flow);
    // The healthy fabric: one attempt over the DOR route, delivered in
    // injection order per link.
    Delivery d{now, now};
    const u64 flits = transmit<false>(now, p.links, bytes, flow,
                                      &d.accepted, &d.delivered, nullptr,
                                      nullptr);
    deliverHealthy(now, p, bytes, flits, d.delivered);
    return d;
}

/**
 * inject() under an active fault map: the route may detour or be
 * missing, and each attempt may be corrupted, NACKed and retransmitted
 * with backoff. The receiver's reorder buffer keeps the pair FIFO.
 */
Delivery
Fabric::injectFaulty(Cycle now, Pair &p, u32 bytes, u64 flow)
{
    const std::vector<u32> &path = p.links;
    if (path.empty())
        return injectUnroutable(now);
    if (p.rerouted)
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
        const u64 flits = transmit<true>(attemptStart, path, bytes, flow,
                                         &accepted, &delivered, &corrupt,
                                         &escaped);
        flitsInjected_ += flits;
        flitsInjectedStat_ += flits;
        flitsInFlight_ += flits;
        p.flits += flits;
        p.linkFlits += flits * path.size();
        if (attempt == 0)
            d.accepted = accepted;
        d.retries = attempt;
        if (!corrupt || escaped) {
            // Delivered — possibly with a checksum escape the caller
            // turns into silent data corruption. The reorder buffer
            // releases messages in sequence order, so a pair's
            // deliveries stay FIFO even when a retransmitted earlier
            // message finishes its traversal late.
            delivered = std::max(delivered, p.inOrder);
            p.inOrder = delivered;
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
        const Cycle wire = p.wireBase + serialization(bytes);
        latencyWire_.sample(wire);
        latencyQueue_.sample((d.delivered - now) - wire);
    }
    return d;
}

/** Retire the flits due at or before @p at, then check the ledger. */
void
Fabric::retire(Cycle at)
{
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
        LedgerSlot *const ring = ledger_.data();
        u64 held = ledgerFlits_;
        for (Cycle i = 0; i < n && held != 0; ++i) {
            LedgerSlot &slot = ring[(ledgerBase_ + i) & (kLedgerCycles - 1)];
            delivered += slot.delivered;
            dropped += slot.dropped;
            held -= slot.delivered + slot.dropped;
            slot = {};
        }
        ledgerFlits_ = held;
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
