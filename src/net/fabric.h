/**
 * @file
 * Cycle-driven multi-chip interconnect (paper section 2.2).
 *
 * net::Topology is the analytic model: routes, hop counts and an
 * idealized latency formula. This module is the timing component the
 * simulator actually drives: messages are injected at a cycle, claim
 * the links of their dimension-order route in injection order (per-
 * link FIFO reservation, cut-through forwarding, 256-byte packet
 * segmentation), and are delivered at a cycle that the caller applies
 * functionally. The math is byte-for-byte the same as Topology::send,
 * so the fabric's zero-load latency equals uncontendedLatency()
 * exactly — tests/test_fabric.cc pins the identity.
 *
 * Conservation contract: every injected flit (one linkBytesPerCycle
 * chunk crossing the first link) is accounted for at all times:
 *     flitsInjected() == flitsDelivered() + flitsInFlight()
 *                                         + flitsDropped()
 * advance(at) retires flits whose delivery cycle has passed — into the
 * delivered ledger for clean packets, into the dropped ledger for
 * corrupted attempts that the receiver NACKed — and fatal()s with a
 * structured message if the ledger ever disagrees; drain() retires
 * everything (end of run).
 *
 * Fault tolerance (DESIGN.md section 18): a FabricFaultMap in the
 * config (or injected mid-run via advance()) marks directed links
 * dead, flaky (seeded per-packet corruption probability) or derated
 * (reduced bandwidth). Routing detours around dead links with a
 * relaxed-dimension-order walk, falling back to a breadth-first
 * detour; an end-to-end retry layer (checksum + NACK + retransmit
 * with exponential backoff) re-sends corrupted packets. Both are pure
 * functions of (topology, fault map, injection sequence), so degraded
 * runs remain bit-reproducible. When the map is empty every cycle of
 * the fault-free fabric is unchanged, and a benign map
 * (flaky at ppm 0) is timing-identical to no map at all
 * (FabricFault.BenignMapMatchesHealthyTimingExactly).
 *
 * Observability (DESIGN.md section 17): every directed link that
 * physically exists carries its own telemetry — flits forwarded, busy
 * cycles, ingress stall cycles, queued flit-cycles (cycle-weighted
 * occupancy integral), a current-backlog gauge and a peak-backlog
 * gauge — registered as "fabric.link.<a>-><b>.*" in stats(). Three
 * "fabric.latency.*" histograms split every message's injection-to-
 * delivery latency into wire (uncontended) and queue components, and
 * per-(src,dst) chip-pair matrices count messages/bytes/flits. With a
 * Tracer attached (setTracer) and the "net" category enabled, each
 * packet emits per-link slices joined by flow events plus per-link
 * occupancy counter tracks. None of this changes a simulated cycle.
 */

#ifndef CYCLOPS_NET_FABRIC_H
#define CYCLOPS_NET_FABRIC_H

#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"
#include "net/topology.h"

namespace cyclops::net
{

/** Cycle-driven fabric configuration (wraps the analytic NetConfig). */
struct FabricConfig
{
    NetConfig net;

    /**
     * Protocol overhead added to every remote access: a remote store
     * sends one message of reqHeaderBytes + payload; a remote load
     * sends a reqHeaderBytes request and a respHeaderBytes + payload
     * response.
     */
    u32 reqHeaderBytes = 8;
    u32 respHeaderBytes = 8;

    /**
     * Lockstep epoch length for multi-chip simulation. Chips run
     * independently for one epoch, then exchange fabric traffic at the
     * boundary. 0 selects the shortest causally-safe epoch, one hop:
     * routerLatency + linkLatency (no message can cross a chip
     * boundary in less).
     */
    Cycle epochCycles = 0;

    /** Resolved epoch length (epochCycles or the one-hop default). */
    Cycle
    epoch() const
    {
        return epochCycles ? epochCycles
                           : net.routerLatency + net.linkLatency;
    }

    /**
     * Link degradation applied to this fabric (empty = healthy).
     * atCycle == 0 degrades from construction; otherwise the map is
     * armed and applied at the first advance() at or past atCycle.
     */
    FabricFaultMap faults = {};

    /**
     * End-to-end reliability parameters. A packet corrupted on a
     * flaky link is NACKed by the receiver and retransmitted after
     * retryBackoff << attempt cycles (exponent capped at
     * retryBackoffCap); an unreachable destination is retried every
     * retryTimeout << attempt cycles. After maxRetries failed
     * attempts the message is abandoned and Delivery::ok is false.
     */
    u32 maxRetries = 8;
    Cycle retryBackoff = 32;
    u32 retryBackoffCap = 6;
    Cycle retryTimeout = 2048;
};

/**
 * Validate a fault map against a topology: endpoints must name a
 * physically existing directed link, probabilities must be sane, and
 * no link may be degraded twice. Returns an error message, or an
 * empty string if the map is well-formed.
 */
std::string checkFaultMap(const NetConfig &net,
                          const FabricFaultMap &map);

/** When the fabric accepted and will deliver an injected message. */
struct Delivery
{
    Cycle accepted = 0;  ///< source injection port drained (backpressure)
    Cycle delivered = 0; ///< last byte arrives at the destination

    /** False when retries exhausted: the destination is unreachable
     *  (partition) or every attempt was corrupted (retry storm).
     *  delivered is then the cycle the sender gave up. */
    bool ok = true;

    /** The payload arrived but a corruption escaped the end-to-end
     *  checksum: the caller owns turning this into silent data
     *  corruption (the fabric does not see payload bits). */
    bool corrupted = false;

    /** Retransmissions + timeout retries this message needed. */
    u32 retries = 0;
};

/**
 * The cycle-driven interconnect of a multi-chip Cyclops system.
 * Deterministic: timing depends only on the injection sequence, and
 * messages sharing a (src, dst) DOR path are delivered in injection
 * order (per-link FIFO), which arch::System relies on for its
 * payload-before-flag memory ordering guarantee.
 */
class Fabric
{
  public:
    /**
     * Telemetry of one directed link (chip, direction). Links whose
     * direction does not physically exist (1-wide dimension, mesh
     * edge) have exists == false and no registered stats.
     */
    struct Link
    {
        u32 src = 0;          ///< owning chip
        u32 dst = 0;          ///< neighbor the link points at
        Dir dir = Dir::XPlus; ///< outgoing direction
        bool exists = false;  ///< physically present in this shape
        u32 track = 0;        ///< dense trace-track index (exists only)
        Counter flits;        ///< flits forwarded over this link
        Counter busyCycles;   ///< cycles spent transmitting
        Counter stallCycles;  ///< ingress queueing behind earlier traffic
        Counter occFlitCycles; ///< integral of queued flits over time
        u64 occPeak = 0;      ///< peak ingress backlog in flits
    };

    explicit Fabric(const FabricConfig &cfg = FabricConfig{});

    const FabricConfig &config() const { return cfg_; }
    const Topology &topology() const { return topo_; }

    /**
     * Inject a @p bytes message from chip @p src to chip @p dst at
     * cycle @p now. Reserves every link of the DOR route (queueing
     * behind earlier traffic), segments messages above maxPacketBytes
     * into pipelined packets, and returns both the backpressure point
     * (accepted: when the source's first link drains) and the delivery
     * cycle. Self-addressed messages and bad endpoints are fatal; the
     * System layer converts them to guest errors first.
     *
     * Inline for the common case, a one-packet message on the healthy
     * fabric with no "net" tracing: transmit()'s arithmetic for one
     * packet with no fault factors. Everything else goes to
     * injectSlow().
     */
    [[gnu::always_inline]] Delivery
    inject(Cycle now, u32 src, u32 dst, u32 bytes)
    {
        if (src >= numChips_ || dst >= numChips_ || src == dst ||
            bytes == 0) [[unlikely]]
            badInject(src, dst);
        Pair &p = pairs_[pairIndex(src, dst)];
        ++messages_;
        bytesMoved_ += bytes;
        ++p.messages;
        p.bytes += bytes;
        const u64 flow = msgSeq_++;
        if (!p.known || faultsActive_ || bytes > cfg_.net.maxPacketBytes ||
            (tracer_ && tracer_->on(TraceCat::Net))) [[unlikely]]
            return injectSlow(now, p, src, dst, bytes, flow);

        const Cycle ser = serialization(bytes);
        const Cycle perHop = cfg_.net.routerLatency + cfg_.net.linkLatency;
        const u32 *hop = p.links.data();
        const u32 *const last = hop + p.links.size();
        Delivery d;
        Cycle head = reserveLink(*hop, now, ser, ser);
        d.accepted = head + ser;
        for (++hop; hop != last; ++hop)
            head = reserveLink(*hop, head + perHop, ser, ser);
        d.delivered = head + perHop + ser;
        deliverHealthy(now, p, bytes, ser, d.delivered);
        return d;
    }

    /**
     * Retire in-flight flits delivered at or before cycle @p at, then
     * check the conservation ledger (structured fatal on violation).
     * arch::System calls this at every epoch boundary. An armed
     * mid-run fault map (atCycle > 0) is applied here the first time
     * at >= atCycle — epoch boundaries are a pure function of the
     * program, so the application point is deterministic.
     */
    void
    advance(Cycle at)
    {
        if (faultsArmed_ && at != kCycleNever && at >= cfg_.faults.atCycle)
            applyFaultMap();
        if (flitsInFlight_ != 0) {
            retire(at);
        } else if (at >= ledgerBase_ && at != kCycleNever) {
            // Nothing in flight: the ring and the far heap are empty,
            // and the ledger holds as it did at the last check.
            ledgerBase_ = at + 1;
        }
        // Anchor for the occupancy gauges: backlog is whatever work
        // each link still holds beyond the cycle the system has
        // advanced to.
        if (at != kCycleNever)
            lastAdvance_ = std::max(lastAdvance_, at);
    }

    /** Retire all in-flight flits (end of simulation). */
    void drain();

    // Flit conservation:
    //     injected == delivered + inFlight + dropped, always.
    u64 flitsInjected() const { return flitsInjected_; }
    u64 flitsDelivered() const { return flitsDelivered_; }
    u64 flitsInFlight() const { return flitsInFlight_; }
    u64 flitsDropped() const { return flitsDropped_; }

    u64 messages() const { return messages_.value(); }
    u64 bytesMoved() const { return bytesMoved_.value(); }
    u64 queueCycles() const { return queueCycles_.value(); }

    // Fault-tolerance telemetry.
    u64 rerouted() const { return rerouted_.value(); }
    u64 retransmits() const { return retransmits_.value(); }
    u64 retries() const { return retries_.value(); }
    u64 crcErrors() const { return crcErrors_.value(); }
    u64 unroutable() const { return unroutable_.value(); }

    /** Whether a fault map currently degrades this fabric (an armed
     *  mid-run map counts only once applied). */
    bool faultsActive() const { return faultsActive_; }

    /** The configured fault map (possibly not yet applied). */
    const FabricFaultMap &faultMap() const { return cfg_.faults; }

    // Per-link telemetry: all chip x direction slots, in
    // linkIndex(chip, dir) order; skip records with !exists.
    const std::vector<Link> &links() const { return links_; }

    /** Directed links that physically exist in this shape. */
    u32 numLinks() const { return numLinks_; }

    /** Trace track names ("link.<a>-><b>"), indexed by Link::track. */
    const std::vector<std::string> &linkTrackNames() const
    {
        return trackNames_;
    }

    // Per-(src, dst) chip-pair traffic matrices.
    u64 pairMessages(u32 src, u32 dst) const
    {
        return pairs_[pairIndex(src, dst)].messages;
    }
    u64 pairBytes(u32 src, u32 dst) const
    {
        return pairs_[pairIndex(src, dst)].bytes;
    }
    u64 pairFlits(u32 src, u32 dst) const
    {
        return pairs_[pairIndex(src, dst)].flits;
    }

    /**
     * Actual link crossings for the pair: sum over every transmission
     * attempt of flits x hops of the path taken. Equals
     * pairFlits x topology hops only while the fault map is empty —
     * detours and retransmissions both add crossings.
     */
    u64 pairLinkFlits(u32 src, u32 dst) const
    {
        return pairs_[pairIndex(src, dst)].linkFlits;
    }

    /** Dimension-order hop count of the pair (Topology::hops), cached. */
    u32 pairHops(u32 src, u32 dst) const
    {
        return pairs_[pairIndex(src, dst)].hops;
    }

    /** Cycles a linkBytesPerCycle link needs to carry @p bytes. */
    Cycle
    serialization(u32 bytes) const
    {
        return bytes < serCycles_.size()
                   ? serCycles_[bytes]
                   : (Cycle(bytes) + cfg_.net.linkBytesPerCycle - 1) /
                         cfg_.net.linkBytesPerCycle;
    }

    /**
     * Zero-load latency of a @p bytes message between two distinct
     * chips, from the cached hop count: equals
     * Topology::uncontendedLatency(src, dst, bytes).
     */
    Cycle
    wireLatency(u32 src, u32 dst, u32 bytes) const
    {
        return pairs_[pairIndex(src, dst)].wireBase + serialization(bytes);
    }

    // Packet-latency split: total == queue + wire, sample for sample.
    const Histogram &latencyTotal() const { return latencyTotal_; }
    const Histogram &latencyQueue() const { return latencyQueue_; }
    const Histogram &latencyWire() const { return latencyWire_; }

    /**
     * Attach a tracer for the "net" category: per-link packet slices
     * (flow-id argument), injection/delivery flow events, and per-link
     * occupancy counter tracks. The tracer must outlive the fabric.
     */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    StatGroup &stats() { return stats_; }

  private:
    /**
     * Everything inject() touches for one (src, dst) pair, in one
     * record: the route as link indices, the dimension-order hop count
     * and zero-load wire time, the traffic matrices and the in-order
     * release clamp.
     *
     * The route is used with and without a fault map: a pure function
     * of (topology, fault map), resolved on first use and again after
     * a fault map is applied. The clamp models the receiver's
     * sequence-number reorder buffer: retransmitted messages may
     * finish traversal out of order, but are released in sequence
     * order, so per-pair FIFO delivery — which arch::System's
     * payload-before-flag protocol relies on — survives faults.
     */
    struct Pair
    {
        std::vector<u32> links; ///< route as linkIndex()es; empty: unreachable
        bool known = false;     ///< links resolved for the current fault map
        bool rerouted = false;  ///< links detour around a dead link
        u32 hops = 0;           ///< Topology::hops (dimension order)
        Cycle wireBase = 0;     ///< hops x (routerLatency + linkLatency)
        Cycle inOrder = 0;      ///< reorder-buffer release clamp
        u64 messages = 0;
        u64 bytes = 0;
        u64 flits = 0;
        u64 linkFlits = 0; ///< attempts x hops of the path taken
    };

    u32 linkIndex(u32 chip, Dir dir) const;
    size_t pairIndex(u32 src, u32 dst) const
    {
        return size_t(src) * numChips_ + dst;
    }

    [[noreturn, gnu::cold]] void badInject(u32 src, u32 dst) const;
    Delivery injectSlow(Cycle now, Pair &p, u32 src, u32 dst, u32 bytes,
                        u64 flow);

    /**
     * Reserve link @p idx for a packet whose header reaches it at
     * @p head and holds it @p occupancy cycles (@p serialization
     * flits): queue behind earlier traffic and record the link's
     * telemetry. Returns the cycle the packet starts crossing.
     */
    [[gnu::always_inline]] Cycle
    reserveLink(u32 idx, Cycle head, Cycle serialization, Cycle occupancy)
    {
        Cycle &freeAt = linkFree_[idx];
        const Cycle xmit = std::max(head, freeAt);
        const Cycle stall = xmit - head;
        queueCycles_ += stall;
        freeAt = xmit + occupancy;

        Link &link = links_[idx];
        link.flits += serialization;
        link.busyCycles += occupancy;
        link.stallCycles += stall;
        link.occFlitCycles += stall * serialization;
        // Ingress backlog this packet observed: everything queued ahead
        // of it plus itself.
        link.occPeak = std::max(link.occPeak, u64(stall + occupancy));
        return xmit;
    }

    /**
     * The ledgers of a message the healthy fabric delivers at
     * @p delivered in @p flits flits: flit counts, the pair matrices
     * and release clamp, the in-flight ledger and the latency split.
     */
    [[gnu::always_inline]] void
    deliverHealthy(Cycle now, Pair &p, u32 bytes, u64 flits,
                   Cycle delivered)
    {
        flitsInjected_ += flits;
        flitsInjectedStat_ += flits;
        flitsInFlight_ += flits;
        p.flits += flits;
        p.linkFlits += flits * p.links.size();
        p.inOrder = std::max(p.inOrder, delivered);
        addInFlight(delivered, flits, false);
        const Cycle total = delivered - now;
        const Cycle wire = p.wireBase + serialization(bytes);
        latencyTotal_.sample(total);
        latencyWire_.sample(wire);
        latencyQueue_.sample(total - wire);
    }
    void registerLinkStats();
    void checkConservation(Cycle at) const;
    void applyFaultMap();
    void resolveRoute(Pair &pair, u32 src, u32 dst);
    void
    addInFlight(Cycle at, u64 flits, bool dropped)
    {
        // A cycle behind the base wraps to a huge distance: far.
        if (at - ledgerBase_ < kLedgerCycles) [[likely]] {
            LedgerSlot &slot = ledger_[at & (kLedgerCycles - 1)];
            (dropped ? slot.dropped : slot.delivered) += flits;
            ledgerFlits_ += flits;
        } else {
            farFlights_.push({at, flits, dropped});
        }
    }
    void retire(Cycle at);
    Delivery injectFaulty(Cycle now, Pair &pair, u32 bytes, u64 flow);
    Delivery injectUnroutable(Cycle now);
    [[gnu::noinline]] void traceHop(const Link &link, Cycle xmit,
                                    Cycle occupancy, Cycle stall, u64 flow,
                                    bool first, bool last);
    bool drawCorrupt(u32 linkIdx, bool *escaped);
    Cycle backoff(u32 attempt) const;

    /**
     * Reserve the links of @p path for one transmission attempt of
     * @p bytes starting at @p start. Returns the flit count; fills
     * accepted/delivered and, with kFaults (the fault map is active),
     * the corruption outcome of this attempt. Without kFaults the
     * arithmetic is byte-for-byte the fault-free fabric's.
     */
    template <bool kFaults>
    u64 transmit(Cycle start, const std::vector<u32> &path, u32 bytes,
                 u64 flow, Cycle *accepted, Cycle *delivered,
                 bool *corrupt, bool *escaped);

    FabricConfig cfg_;
    Topology topo_;
    u32 numChips_ = 0;
    std::vector<Cycle> serCycles_; ///< serialization() of 0..maxPacketBytes
    std::vector<Cycle> linkFree_; ///< chip x direction reservation

    // In-flight flits for advance()/drain(), by the cycle they retire.
    // Dropped attempts (corrupted, NACKed) stay in flight until their
    // traversal completes, then retire into the dropped ledger. Cycles
    // in [ledgerBase_, ledgerBase_ + kLedgerCycles) keep one slot of
    // per-cycle sums in a ring; anything else (beyond the horizon, or
    // behind the base) goes to the farFlights_ heap.
    static constexpr u32 kLedgerCycles = 1024;
    struct LedgerSlot
    {
        u64 delivered = 0;
        u64 dropped = 0;
    };
    struct Flight
    {
        Cycle at = 0;
        u64 flits = 0;
        bool dropped = false;
        bool operator>(const Flight &o) const { return at > o.at; }
    };
    std::vector<LedgerSlot> ledger_;  ///< cycle c in slot c % kLedgerCycles
    Cycle ledgerBase_ = 0;            ///< first cycle not yet retired
    u64 ledgerFlits_ = 0;             ///< flits held in the ring
    std::priority_queue<Flight, std::vector<Flight>,
                        std::greater<Flight>>
        farFlights_;
    u64 flitsInjected_ = 0;
    u64 flitsDelivered_ = 0;
    u64 flitsInFlight_ = 0;
    u64 flitsDropped_ = 0;
    Cycle lastAdvance_ = 0; ///< anchor for the occupancy gauges

    std::vector<Link> links_;
    u32 numLinks_ = 0;
    std::vector<std::string> trackNames_;   ///< by Link::track
    std::vector<std::string> occTrackNames_; ///< counter-track names
    std::vector<Pair> pairs_; ///< by pairIndex(src, dst)

    // Fault state, all indexed by linkIndex(chip, dir). Inactive
    // (faultsActive_ == false) leaves the hot inject path untouched.
    bool faultsActive_ = false;
    bool faultsArmed_ = false; ///< mid-run map waiting for atCycle
    std::vector<bool> deadLink_;
    std::vector<u32> flakyPpm_;
    std::vector<u32> escapePpm_;
    std::vector<u32> derate_;
    std::vector<u64> linkPktSeq_; ///< per-link corruption-draw stream

    Tracer *tracer_ = nullptr;
    u64 msgSeq_ = 0; ///< flow ids connecting injection to delivery

    StatGroup stats_;
    Counter messages_;
    Counter bytesMoved_;
    Counter queueCycles_;
    Counter flitsInjectedStat_;
    Counter flitsDeliveredStat_;
    Counter flitsDroppedStat_;
    Counter rerouted_;
    Counter retransmits_;
    Counter retries_;
    Counter crcErrors_;
    Counter unroutable_;
    Histogram latencyTotal_;
    Histogram latencyQueue_;
    Histogram latencyWire_;
};

} // namespace cyclops::net

#endif // CYCLOPS_NET_FABRIC_H
