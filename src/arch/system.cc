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
        chips_.back()->attachRemote(this, i, n);
    }
    staged_.resize(size_t(n) * cfg_.chip.numThreads);
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

u32
System::checkRemoteEa(u32 srcChip, ThreadId tid, Addr ea, u8 bytes) const
{
    const u32 dst = remoteChipOf(ea);
    if (dst >= numChips())
        guestCheck("remote window addresses chip %u of a %u-chip "
                   "system (chip %u thread %u, ea 0x%08x)",
                   dst, numChips(), srcChip, tid, ea);
    if (dst == srcChip)
        guestCheck("remote window targets the local chip %u "
                   "(thread %u, ea 0x%08x)", srcChip, tid, ea);
    if (remoteOffsetOf(ea) % bytes != 0)
        guestCheck("misaligned %u-byte remote access at 0x%08x "
                   "(chip %u thread %u)", bytes, ea, srcChip, tid);
    return dst;
}

u64
System::remoteRead(u32 srcChip, ThreadId tid, Addr ea, u8 bytes)
{
    const u32 dst = checkRemoteEa(srcChip, tid, ea, bytes);
    u64 value = 0;
    chips_[dst]->readPhys(windowBase_ + remoteOffsetOf(ea), &value,
                          bytes);
    return value;
}

void
System::remoteWrite(u32 srcChip, ThreadId tid, Addr ea, u8 bytes,
                    u64 value)
{
    checkRemoteEa(srcChip, tid, ea, bytes);
    StagedStore &s = staged_[size_t(srcChip) * cfg_.chip.numThreads + tid];
    if (s.valid)
        panic("chip %u thread %u staged a second remote store "
              "(ea 0x%08x) before the first was committed", srcChip,
              tid, ea);
    s = {true, ea, bytes, value};
}

MemTiming
System::remoteAccess(u32 srcChip, ThreadId tid, Cycle now, Addr ea,
                     u8 bytes, MemKind kind)
{
    if (kind == MemKind::Atomic)
        guestCheck("remote atomics are not supported (chip %u "
                   "thread %u, ea 0x%08x)", srcChip, tid, ea);
    const u32 dst = checkRemoteEa(srcChip, tid, ea, bytes);
    const net::Topology &topo = fabric_.topology();

    MemTiming t;
    t.remote = true;
    t.hit = false;
    t.fabric = true; // waits on this timing charge to RemoteWait
    if (kind == MemKind::Store) {
        StagedStore &s =
            staged_[size_t(srcChip) * cfg_.chip.numThreads + tid];
        if (!s.valid || s.ea != ea)
            panic("remote store timing with no staged value "
                  "(chip %u thread %u, ea 0x%08x)", srcChip, tid, ea);
        const u32 msg = cfg_.fabric.reqHeaderBytes + bytes;
        const net::Delivery d = fabric_.inject(now, srcChip, dst, msg);
        if (!d.ok) {
            // Retries exhausted: the store is abandoned, never lands,
            // and the run ends with a structured FabricFailure at the
            // next epoch boundary — the thread stalls until the
            // sender's give-up cycle, not forever.
            s.valid = false;
            noteFabricFailure(strprintf(
                "chip %u thread %u: remote store to chip %u "
                "(ea 0x%08x) abandoned after %u fabric retries: "
                "destination unreachable or retry storm",
                srcChip, tid, dst, ea, d.retries));
            t.ready = d.delivered;
            t.queueWait = 0;
            return t;
        }
        u64 value = s.value;
        if (d.corrupted) {
            // The corruption escaped the end-to-end checksum: flip
            // one deterministic payload bit — silent data corruption
            // the fault campaigns classify as SDC.
            value ^= u64(1) << (seq_ % (u64(s.bytes) * 8));
        }
        pending_.push({d.delivered, seq_++, dst,
                       windowBase_ + remoteOffsetOf(ea), s.bytes,
                       value});
        s.valid = false;
        // Posted store: the thread resumes when the injection port
        // drains, so sustained stores are paced to the link bandwidth
        // (the 12 GB/s I/O budget).
        t.ready = d.accepted;
        const u32 lbpc = cfg_.fabric.net.linkBytesPerCycle;
        const Cycle serialization = (msg + lbpc - 1) / lbpc;
        t.queueWait = d.accepted - now - serialization;
    } else {
        // Load/Prefetch: a header-only request, then the response with
        // the payload injected when the request arrives. The value
        // itself was snapshot by remoteRead at issue time.
        const u32 req = cfg_.fabric.reqHeaderBytes;
        const u32 resp = cfg_.fabric.respHeaderBytes + bytes;
        const net::Delivery d1 = fabric_.inject(now, srcChip, dst, req);
        if (!d1.ok) {
            noteFabricFailure(strprintf(
                "chip %u thread %u: remote load request to chip %u "
                "(ea 0x%08x) abandoned after %u fabric retries: "
                "destination unreachable or retry storm",
                srcChip, tid, dst, ea, d1.retries));
            t.ready = d1.delivered;
            t.queueWait = 0;
            return t;
        }
        const net::Delivery d2 =
            fabric_.inject(d1.delivered, dst, srcChip, resp);
        if (!d2.ok) {
            noteFabricFailure(strprintf(
                "chip %u thread %u: remote load response from chip %u "
                "(ea 0x%08x) abandoned after %u fabric retries: "
                "destination unreachable or retry storm",
                srcChip, tid, dst, ea, d2.retries));
            t.ready = d2.delivered;
            t.queueWait = 0;
            return t;
        }
        // A response corruption that escapes the checksum is caught
        // by a higher-level re-request in real hardware; the model
        // keeps loads exact (the value was snapshot by remoteRead).
        t.ready = d2.delivered;
        const Cycle uncontended =
            topo.uncontendedLatency(srcChip, dst, req) +
            topo.uncontendedLatency(dst, srcChip, resp);
        t.queueWait = (d2.delivered - now) - uncontended;
    }
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
System::noteEpochRetransmits()
{
    const Cycle window = 2 * Cycle(cfg_.chip.fault.watchdogCycles);
    if (window == 0)
        return; // watchdog off: no attribution needed
    const u64 cur = fabric_.retransmits();
    if (retransHist_.empty())
        retransHist_.emplace_back(0, 0); // baseline: nothing resent yet
    if (retransHist_.back().second != cur)
        retransHist_.emplace_back(now_, cur);
    // Keep the latest sample at or before (now - window) as the
    // baseline, so recentRetransmits() counts exactly the window.
    const Cycle cutoff = now_ > window ? now_ - window : 0;
    while (retransHist_.size() > 1 && retransHist_[1].first <= cutoff)
        retransHist_.pop_front();
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
    pending_.popUpTo(upTo, [this](const PendingStore &p) {
        chips_[p.dstChip]->writePhys(p.pa, &p.value, p.bytes);
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

    while (true) {
        if (fabricFailed_) {
            // A remote access exhausted its fabric retries during the
            // last epoch: structured exit, never a hang or a fatal.
            RunExit e(RunExitReason::FabricFailure, now_);
            e.diagnostic = failDiag_;
            return e;
        }
        Cycle minLive = kCycleNever;
        Cycle maxNow = now_;
        for (const auto &chip : chips_) {
            maxNow = std::max(maxNow, chip->now());
            if (chip->liveUnits())
                minLive = std::min(minLive, chip->now());
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

        for (u32 i = 0; i < numChips(); ++i) {
            Chip &c = *chips_[i];
            if (c.liveUnits() == 0 || c.now() >= target)
                continue;
            RunExit e = c.run(target - c.now());
            if (e == RunExitReason::Watchdog) {
                // Attribute the hang: retransmissions climbing inside
                // the trailing watchdog window point at fabric-level
                // livelock (a retry storm), not chip-level deadlock.
                const u64 storm = recentRetransmits();
                std::string attribution;
                if (storm > 0)
                    attribution = strprintf(
                        "fabric livelock suspected: %llu "
                        "retransmissions in the trailing watchdog "
                        "window (retry storm)\n",
                        static_cast<unsigned long long>(storm));
                e.diagnostic = attribution +
                               strprintf("chip %u\n", i) + e.diagnostic;
                return e;
            }
            if (e == RunExitReason::Signal)
                return e;
        }
        now_ = target;
        applyDeliveries(now_);
        fabricSampler_.maybeSample(now_);
        noteEpochRetransmits();
    }
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
    // directed link (tools/check_trace.py validates the scheme).
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
    // while the fault map is empty (tools/check_fabric.py).
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
