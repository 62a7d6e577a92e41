#include "arch/system.h"

#include <algorithm>

#include "common/log.h"

namespace cyclops::arch
{

std::string
SystemConfig::check() const
{
    const std::string chipErr = chip.check();
    if (!chipErr.empty())
        return chipErr;
    if (numChips() == 0)
        return "system has no chips";
    if (numChips() > kRemoteMaxChips)
        return strprintf("%u chips exceed the %u-chip remote-window "
                         "limit (6 chip-id bits)",
                         numChips(), kRemoteMaxChips);
    if (fabric.reqHeaderBytes == 0 || fabric.respHeaderBytes == 0)
        return "fabric protocol headers must be nonzero";
    if (!fabric.faults.empty()) {
        const std::string faultErr =
            net::checkFaultMap(fabric.net, fabric.faults);
        if (!faultErr.empty())
            return faultErr;
    }
    if (fabric.retryBackoff == 0 || fabric.retryTimeout == 0)
        return "fabric retry backoff/timeout must be nonzero";
    const PhysAddr base = windowBaseOf();
    if (base % kRemoteWindowBytes != 0)
        return strprintf("windowBase 0x%06x is not %u KB aligned", base,
                         kRemoteWindowBytes / 1024);
    if (base + kRemoteWindowBytes > chip.memBytes())
        return strprintf("remote window [0x%06x, 0x%06x) exceeds the "
                         "%u KB embedded memory",
                         base, base + kRemoteWindowBytes,
                         chip.memBytes() / 1024);
    // Chips address their own window with plain local EAs, so the
    // window must sit below the remote-window bit.
    if (base + kRemoteWindowBytes > kRemoteWindowBit)
        return strprintf("remote window [0x%06x, 0x%06x) overlaps the "
                         "remote-window address bit 0x%06x; set "
                         "windowBase explicitly",
                         base, base + kRemoteWindowBytes,
                         kRemoteWindowBit);
    return "";
}

void
SystemConfig::validate() const
{
    const std::string err = check();
    if (!err.empty())
        fatal("bad system configuration: %s", err.c_str());
}

namespace
{

/**
 * Per-chip variant of an observability output path: paths containing
 * "%t" stay as-is (the per-chip tag disambiguates them); plain paths
 * get a ".chipN" suffix so concurrent chips never share a file.
 */
std::string
perChipPath(const std::string &path, u32 id)
{
    if (path.empty() || path.find("%t") != std::string::npos)
        return path;
    return path + strprintf(".chip%u", id);
}

} // namespace

System::System(const SystemConfig &cfg)
    : cfg_(cfg), obsOrig_(cfg.chip.obs), fabric_(cfg.fabric),
      windowBase_(cfg.windowBaseOf())
{
    cfg_.validate();
    // Fabric-level observability mirrors the chip-level layer: an
    // epoch sampler over the fabric's StatGroup (same interval as the
    // chips) and a dedicated tracer for the "net" category. Neither
    // can change simulated timing (determinism tests compare on/off).
    fabricSampler_.configure(&fabric_.stats(), obsOrig_.statsInterval);
    fabricTracer_.configure(obsOrig_.traceCats, obsOrig_.traceCapacity);
    fabric_.setTracer(&fabricTracer_);
    const u32 n = cfg_.numChips();
    chips_.reserve(n);
    for (u32 i = 0; i < n; ++i) {
        ChipConfig cc = cfg_.chip;
        // The System writes the one merged multi-process trace itself;
        // per-chip tracers keep recording (traceCats untouched) but
        // must not each export a file. Stats/series/profile outputs
        // stay per chip under a disambiguated path and tag.
        cc.obs.traceOut.clear();
        cc.obs.tag = obsOrig_.tag.empty()
                         ? strprintf("chip%u", i)
                         : obsOrig_.tag + strprintf("-chip%u", i);
        cc.obs.statsJson = perChipPath(obsOrig_.statsJson, i);
        cc.obs.statsCsv = perChipPath(obsOrig_.statsCsv, i);
        cc.obs.profOut = perChipPath(obsOrig_.profOut, i);
        chips_.push_back(std::make_unique<Chip>(cc));
    }
    std::vector<u8 *> windows(n);
    for (u32 i = 0; i < n; ++i)
        windows[i] = chips_[i]->hostPhys(windowBase_);
    for (u32 i = 0; i < n; ++i)
        chips_[i]->attachRemote(this, i, windows);
}

void
System::loadProgramAll(const isa::Program &program)
{
    for (auto &chip : chips_)
        chip->loadProgram(program);
}

u32
System::liveUnits() const
{
    u32 live = 0;
    for (const auto &chip : chips_)
        live += chip->liveUnits();
    return live;
}

u64
System::totalInstructions() const
{
    u64 sum = 0;
    for (const auto &chip : chips_)
        sum += chip->totalInstructions();
    return sum;
}

MemTiming
System::remoteAccess(u32 srcChip, ThreadId tid, Cycle now, const MemRef &ref,
                     MemKind kind, u64 value)
{
    const u32 dst = ref.chip;
    MemTiming t;
    t.remote = true;
    t.hit = false;
    t.fabric = true; // waits on this timing charge to RemoteWait
    if (kind == MemKind::Store) {
        const u32 msg = cfg_.fabric.reqHeaderBytes + ref.bytes;
        const net::Delivery d = fabric_.inject(now, srcChip, dst, msg);
        if (!d.ok) [[unlikely]]
            return abandoned("remote store to", srcChip, tid, dst, ref, d);
        if (d.corrupted) {
            // The corruption escaped the end-to-end checksum: flip
            // one deterministic payload bit — silent data corruption
            // the fault campaigns classify as SDC.
            value ^= u64(1) << (seq_ % (u64(ref.bytes) * 8));
        }
        pending_.emplace(d.delivered, seq_++, ref.host, value, ref.bytes);
        // Posted store: the thread resumes when the injection port
        // drains, so sustained stores are paced to the link bandwidth
        // (the 12 GB/s I/O budget).
        t.ready = d.accepted;
        t.queueWait = d.accepted - now - fabric_.serialization(msg);
    } else {
        // Load/Prefetch: a header-only request, then the response with
        // the payload injected when the request arrives. The value
        // itself was read from the target window at issue time.
        const u32 req = cfg_.fabric.reqHeaderBytes;
        const u32 resp = cfg_.fabric.respHeaderBytes + ref.bytes;
        const net::Delivery d1 = fabric_.inject(now, srcChip, dst, req);
        if (!d1.ok) [[unlikely]]
            return abandoned("remote load request to", srcChip, tid, dst,
                             ref, d1);
        const net::Delivery d2 =
            fabric_.inject(d1.delivered, dst, srcChip, resp);
        if (!d2.ok) [[unlikely]]
            return abandoned("remote load response from", srcChip, tid,
                             dst, ref, d2);
        // A response corruption that escapes the checksum is caught
        // by a higher-level re-request in real hardware; the model
        // keeps loads exact (the value was read at issue time).
        t.ready = d2.delivered;
        const Cycle uncontended = fabric_.wireLatency(srcChip, dst, req) +
                                  fabric_.wireLatency(dst, srcChip, resp);
        t.queueWait = (d2.delivered - now) - uncontended;
    }
    return t;
}

MemTiming
System::abandoned(const char *what, u32 srcChip, ThreadId tid, u32 peer,
                  const MemRef &ref, const net::Delivery &d)
{
    // Retries exhausted: a store is abandoned and never lands, and the
    // run ends with a structured FabricFailure at the next epoch
    // boundary — the thread stalls until the sender's give-up cycle,
    // not forever.
    noteFabricFailure(strprintf(
        "chip %u thread %u: %s chip %u (ea 0x%08x) abandoned after %u "
        "fabric retries: destination unreachable or retry storm",
        srcChip, tid, what, peer, ref.ea, d.retries));
    MemTiming t;
    t.remote = true;
    t.hit = false;
    t.fabric = true;
    t.ready = d.delivered;
    t.queueWait = 0;
    return t;
}

void
System::noteFabricFailure(std::string diag)
{
    if (fabricFailed_)
        return; // first failure wins: deterministic diagnostic
    fabricFailed_ = true;
    failDiag_ = std::move(diag);
}

void
System::sampleRetransmits()
{
    const Cycle window = 2 * Cycle(cfg_.chip.fault.watchdogCycles);
    const u64 cur = fabric_.retransmits();
    retransLast_ = cur;
    if (window == 0)
        return; // watchdog off: no attribution needed
    if (retransHist_.empty())
        retransHist_.emplace_back(0, 0); // baseline: nothing resent yet
    if (retransHist_.back().second != cur)
        retransHist_.emplace_back(now_, cur);
    // Keep the latest sample at or before (now - window) as the
    // baseline, so recentRetransmits() counts exactly the window.
    const Cycle cutoff = now_ > window ? now_ - window : 0;
    while (retransHist_.size() > 1 && retransHist_[1].first <= cutoff)
        retransHist_.pop_front();
    retransPruneAt_ = retransHist_.size() > 1
                          ? retransHist_[1].first + window
                          : kCycleNever;
}

u64
System::recentRetransmits() const
{
    const u64 cur = fabric_.retransmits();
    return retransHist_.empty() ? cur
                                : cur - retransHist_.front().second;
}

void
System::applyDeliveries(Cycle upTo)
{
    // Total (delivered, seq) order: a flag stored after its payload on
    // the same path has a later delivery cycle (per-link FIFO), so it
    // is applied after — the cross-chip ordering guests rely on.
    pending_.popUpTo(upTo, [](const PendingStore &p) {
        storeBytes(p.host, p.value, p.bytes);
    });
    fabric_.advance(upTo);
}

RunExit
System::run(Cycle maxCycles)
{
    const Cycle limit = maxCycles >= kCycleNever - now_
                            ? kCycleNever
                            : now_ + maxCycles;
    const Cycle epoch = cfg_.fabric.epoch();

    // The laggard live chip and the leading chip, kept up to date by
    // the one pass over the chips each epoch makes.
    Cycle minLive = kCycleNever;
    Cycle maxNow = now_;
    for (const auto &chip : chips_) {
        maxNow = std::max(maxNow, chip->now());
        if (chip->liveUnits())
            minLive = std::min(minLive, chip->now());
    }

    while (true) {
        if (fabricFailed_) {
            // A remote access exhausted its fabric retries during the
            // last epoch: structured exit, never a hang or a fatal.
            RunExit e(RunExitReason::FabricFailure, now_);
            e.diagnostic = failDiag_;
            return e;
        }
        if (minLive == kCycleNever) {
            // Everything halted: flush the fabric so conservation
            // closes (flitsInFlight() == 0) and late stores land.
            now_ = std::max(now_, maxNow);
            applyDeliveries(kCycleNever);
            fabric_.drain();
            fabricSampler_.maybeSample(now_);
            return {RunExitReason::AllHalted, now_};
        }
        if (now_ >= limit)
            return {RunExitReason::CycleLimit, now_};

        // One epoch, or a jump to where the laggard chip already is
        // (chips overshoot boundaries via their idle fast-forward; an
        // epoch no chip executes in needs no barrier of its own).
        Cycle target = now_ + epoch;
        if (minLive > target)
            target = minLive;
        target = std::min(target, limit);

        minLive = kCycleNever;
        maxNow = target;
        const std::unique_ptr<Chip> *chips = chips_.data();
        for (u32 i = 0, n = numChips(); i < n; ++i) {
            Chip &c = *chips[i];
            if (c.liveUnits() != 0 && c.now() < target) {
                const RunExitReason r = c.runTo(target);
                if (r == RunExitReason::Watchdog ||
                    r == RunExitReason::Signal) [[unlikely]]
                    return chipExit(i, r);
            }
            const Cycle at = c.now();
            maxNow = std::max(maxNow, at);
            if (c.liveUnits())
                minLive = std::min(minLive, at);
        }
        now_ = target;
        applyDeliveries(now_);
        fabricSampler_.maybeSample(now_);
        noteEpochRetransmits();
    }
}

RunExit
System::chipExit(u32 id, RunExitReason reason) const
{
    RunExit e = chips_[id]->exitOf(reason);
    if (reason != RunExitReason::Watchdog)
        return e;
    // Attribute the hang: retransmissions climbing inside the trailing
    // watchdog window point at fabric-level livelock (a retry storm),
    // not chip-level deadlock.
    const u64 storm = recentRetransmits();
    std::string attribution;
    if (storm > 0)
        attribution = strprintf("fabric livelock suspected: %llu "
                                "retransmissions in the trailing "
                                "watchdog window (retry storm)\n",
                                static_cast<unsigned long long>(storm));
    e.diagnostic = attribution + strprintf("chip %u\n", id) + e.diagnostic;
    return e;
}

void
System::writeObservability()
{
    for (auto &chip : chips_)
        chip->writeObservability();
    writeFabricStats();
    writeFabricHeatmap();
    if (obsOrig_.traceOut.empty())
        return;

    // One merged Chrome trace: chip N rides pid 10+N as process
    // "cyclops-chipN" (pid 1 stays the standalone guest process and
    // pid 2 is unused), and with the "net" category enabled the
    // fabric rides pid 3 as "cyclops-fabric" with one track per
    // directed link (`tools/cyclops_check.py trace` validates it).
    const std::string path = obsOrig_.expandPath(obsOrig_.traceOut);
    std::FILE *f = openOutput(path, "trace output");
    std::fputs("{\n  \"displayTimeUnit\": \"ns\",\n"
               "  \"traceEvents\": [\n",
               f);
    u64 dropped = 0;
    for (u32 i = 0; i < numChips(); ++i) {
        const std::string name = strprintf("cyclops-chip%u", i);
        chips_[i]->tracer().writeChromeEvents(f, 10 + i, name.c_str(),
                                              cfg_.chip.numThreads,
                                              i > 0);
        dropped += chips_[i]->tracer().dropped();
    }
    if (fabricTracer_.on(TraceCat::Net)) {
        fabricTracer_.writeChromeEvents(f, 3, "cyclops-fabric",
                                        fabric_.numLinks(), true,
                                        &fabric_.linkTrackNames());
        dropped += fabricTracer_.dropped();
    }
    std::fprintf(f,
                 "\n  ],\n  \"otherData\": {\"droppedEvents\": %llu}\n}\n",
                 static_cast<unsigned long long>(dropped));
    closeOutput(f, path);
}

void
System::writeFabricStats()
{
    if (obsOrig_.fabricStats.empty())
        return;
    fabricSampler_.finalize(now_);
    const std::string path = obsOrig_.expandPath(obsOrig_.fabricStats);
    std::FILE *f = openOutput(path, "fabric stats output");
    const net::NetConfig &nc = cfg_.fabric.net;
    std::fprintf(f,
                 "{\n  \"schema\": \"cyclops-fabric-v1\",\n"
                 "  \"cycles\": %llu,\n"
                 "  \"topology\": {\"dimX\": %u, \"dimY\": %u, "
                 "\"dimZ\": %u, \"torus\": %s, \"chips\": %u, "
                 "\"links\": %u},\n",
                 static_cast<unsigned long long>(now_), nc.dimX,
                 nc.dimY, nc.dimZ, nc.torus ? "true" : "false",
                 nc.numChips(), fabric_.numLinks());
    // Link-fault map: validators relax the healthy-fabric identities
    // (flits x hops, busy == flits, histogram n == messages) exactly
    // when "active" is true.
    const net::FabricFaultMap &fm = fabric_.faultMap();
    std::fprintf(f,
                 "  \"faults\": {\"active\": %s, \"seed\": %llu, "
                 "\"atCycle\": %llu, \"links\": [",
                 fabric_.faultsActive() ? "true" : "false",
                 static_cast<unsigned long long>(fm.seed),
                 static_cast<unsigned long long>(fm.atCycle));
    bool first = true;
    for (const net::LinkFault &lf : fm.links) {
        std::fprintf(f,
                     "%s\n    {\"src\": %u, \"dst\": %u, "
                     "\"kind\": \"%s\", \"flakyPpm\": %u, "
                     "\"escapePpm\": %u, \"derate\": %u}",
                     first ? "" : ",", lf.src, lf.dst,
                     net::linkFaultKindName(lf.kind), lf.flakyPpm,
                     lf.escapePpm, lf.derate);
        first = false;
    }
    std::fputs(first ? "]},\n  \"counters\": {"
                     : "\n  ]},\n  \"counters\": {",
               f);
    first = true;
    for (const auto &[name, value] : fabric_.stats().counters()) {
        std::fprintf(f, "%s\n    \"%s\": %llu", first ? "" : ",",
                     name.c_str(),
                     static_cast<unsigned long long>(value));
        first = false;
    }
    std::fputs("\n  },\n  \"histograms\": {", f);
    first = true;
    for (const auto &[name, h] : fabric_.stats().histograms()) {
        std::fprintf(f,
                     "%s\n    \"%s\": {\"n\": %llu, \"sum\": %llu, "
                     "\"max\": %llu, \"buckets\": [",
                     first ? "" : ",", name.c_str(),
                     static_cast<unsigned long long>(h->samples()),
                     static_cast<unsigned long long>(h->sum()),
                     static_cast<unsigned long long>(h->max()));
        for (unsigned b = 0; b < Histogram::kBuckets; ++b)
            std::fprintf(f, "%s%llu", b ? ", " : "",
                         static_cast<unsigned long long>(h->bucket(b)));
        std::fputs("]}", f);
        first = false;
    }
    // Chip-pair traffic matrix (pairs with traffic only). "hops" is
    // the analytic DOR hop count; "linkFlits" is the pair's actual
    // link crossings (per transmission attempt, so detours and
    // retransmits are included): sum over links of flits == sum over
    // pairs of linkFlits always, and linkFlits == flits * hops only
    // while the fault map is empty (`tools/cyclops_check.py fabric`).
    std::fputs("\n  },\n  \"pairs\": [", f);
    first = true;
    const u32 chips = nc.numChips();
    for (u32 s = 0; s < chips; ++s) {
        for (u32 d = 0; d < chips; ++d) {
            if (s == d || fabric_.pairMessages(s, d) == 0)
                continue;
            std::fprintf(
                f,
                "%s\n    {\"src\": %u, \"dst\": %u, \"messages\": %llu, "
                "\"bytes\": %llu, \"flits\": %llu, \"hops\": %u, "
                "\"linkFlits\": %llu}",
                first ? "" : ",", s, d,
                static_cast<unsigned long long>(fabric_.pairMessages(s, d)),
                static_cast<unsigned long long>(fabric_.pairBytes(s, d)),
                static_cast<unsigned long long>(fabric_.pairFlits(s, d)),
                fabric_.topology().hops(s, d),
                static_cast<unsigned long long>(
                    fabric_.pairLinkFlits(s, d)));
            first = false;
        }
    }
    std::fputs("\n  ],\n  \"links\": [", f);
    first = true;
    for (const net::Fabric::Link &link : fabric_.links()) {
        if (!link.exists)
            continue;
        std::fprintf(
            f,
            "%s\n    {\"src\": %u, \"dst\": %u, \"dir\": %u, "
            "\"flits\": %llu, \"busyCycles\": %llu, "
            "\"stallCycles\": %llu, \"occFlitCycles\": %llu, "
            "\"occPeak\": %llu}",
            first ? "" : ",", link.src, link.dst, u32(link.dir),
            static_cast<unsigned long long>(link.flits.value()),
            static_cast<unsigned long long>(link.busyCycles.value()),
            static_cast<unsigned long long>(link.stallCycles.value()),
            static_cast<unsigned long long>(link.occFlitCycles.value()),
            static_cast<unsigned long long>(link.occPeak));
        first = false;
    }
    std::fputs("\n  ]", f);
    if (fabricSampler_.enabled()) {
        std::fputs(",\n  \"series\": ", f);
        writeSeriesJson(f, fabricSampler_);
    }
    std::fputs("\n}\n", f);
    closeOutput(f, path);
}

void
System::writeFabricHeatmap()
{
    if (obsOrig_.fabricHeatmap.empty())
        return;
    const std::string path = obsOrig_.expandPath(obsOrig_.fabricHeatmap);
    std::FILE *f = openOutput(path, "fabric heatmap output");
    // Two row kinds share one schema: "pair" rows are the (src, dst)
    // traffic matrix (dir = -1, link-only columns zero), "link" rows
    // are per-directed-link congestion (pair-only columns zero).
    std::fputs("# cyclops-fabric-heatmap-v1\n"
               "kind,src,dst,dir,messages,bytes,flits,busyCycles,"
               "stallCycles,occFlitCycles,occPeak\n",
               f);
    const u32 chips = cfg_.fabric.net.numChips();
    for (u32 s = 0; s < chips; ++s) {
        for (u32 d = 0; d < chips; ++d) {
            if (s == d || fabric_.pairMessages(s, d) == 0)
                continue;
            std::fprintf(
                f, "pair,%u,%u,-1,%llu,%llu,%llu,0,0,0,0\n", s, d,
                static_cast<unsigned long long>(fabric_.pairMessages(s, d)),
                static_cast<unsigned long long>(fabric_.pairBytes(s, d)),
                static_cast<unsigned long long>(fabric_.pairFlits(s, d)));
        }
    }
    for (const net::Fabric::Link &link : fabric_.links()) {
        if (!link.exists)
            continue;
        std::fprintf(
            f, "link,%u,%u,%u,0,0,%llu,%llu,%llu,%llu,%llu\n", link.src,
            link.dst, u32(link.dir),
            static_cast<unsigned long long>(link.flits.value()),
            static_cast<unsigned long long>(link.busyCycles.value()),
            static_cast<unsigned long long>(link.stallCycles.value()),
            static_cast<unsigned long long>(link.occFlitCycles.value()),
            static_cast<unsigned long long>(link.occPeak));
    }
    closeOutput(f, path);
}

} // namespace cyclops::arch
