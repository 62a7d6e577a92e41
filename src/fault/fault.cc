#include "fault/fault.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>

#include "arch/chip.h"
#include "arch/thread_unit.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "net/topology.h"
#include "verify/fuzz.h"
#include "verify/prog_gen.h"
#include "verify/ref_interp.h"
#include "workloads/multichip.h"

namespace cyclops::fault
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Register:
        return "register";
      case FaultKind::Memory:
        return "memory";
      case FaultKind::CacheLine:
        return "cacheLine";
      case FaultKind::Link:
        return "link";
    }
    return "?";
}

bool
parseFaultKind(const char *name, FaultKind *out)
{
    for (u8 k = 0; k <= u8(FaultKind::Link); ++k) {
        if (std::strcmp(name, faultKindName(FaultKind(k))) == 0) {
            *out = FaultKind(k);
            return true;
        }
    }
    return false;
}

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Masked:
        return "masked";
      case Outcome::Detected:
        return "detected";
      case Outcome::Sdc:
        return "sdc";
      case Outcome::Crash:
        return "crash";
      case Outcome::Hang:
        return "hang";
    }
    return "?";
}

namespace
{

/** The small-but-structurally-complete chip the campaigns run on. */
ChipConfig
campaignChip(const CampaignOptions &opts)
{
    ChipConfig cfg;
    cfg.numThreads = 8;
    cfg.numBanks = 4;
    cfg.bankBytes = 256 * 1024;
    cfg.fault.watchdogCycles = opts.watchdogCycles;
    return cfg;
}

/**
 * Flush a chip's observability outputs on scope exit. The injected run
 * returns from several places (hang, guest exception, completion) and
 * all of them should leave stats/trace files behind when requested.
 */
struct ObsFlush
{
    arch::Chip &chip;
    ~ObsFlush()
    {
        if (chip.config().obs.anyOutput())
            chip.writeObservability();
    }
};

/** Build a fresh chip running @p gp from cycle 0. */
std::unique_ptr<arch::Chip>
spawnChip(const verify::GenProgram &gp, const ChipConfig &cfg)
{
    auto chip = std::make_unique<arch::Chip>(cfg);
    chip->loadProgram(gp.program);
    for (u32 t = 0; t < gp.threads; ++t) {
        chip->setUnit(t, std::make_unique<arch::ThreadUnit>(
                             t, *chip, gp.program.entry));
        chip->activate(t);
    }
    return chip;
}

/** Apply @p spec to @p chip (the moment the transient fault strikes). */
void
inject(arch::Chip &chip, const FaultSpec &spec)
{
    switch (spec.kind) {
      case FaultKind::Register: {
        auto *tu = static_cast<arch::ThreadUnit *>(chip.unit(spec.thread));
        tu->setReg(spec.reg, tu->reg(spec.reg) ^ (u32(1) << spec.bit));
        break;
      }
      case FaultKind::Memory: {
        u8 byte = 0;
        chip.readPhys(spec.addr, &byte, 1);
        byte ^= u8(1u << spec.bit);
        chip.writePhys(spec.addr, &byte, 1);
        break;
      }
      case FaultKind::CacheLine:
        chip.memsys().dcache(CacheId(spec.cache)).faultLine(spec.line);
        break;
      case FaultKind::Link:
        panic("link faults are injected by the fabric, not here");
    }
}

/** The multi-chip workload link-fault iterations run and verify. */
workloads::MultiChipConfig
campaignSystem(const CampaignOptions &opts)
{
    workloads::MultiChipConfig mc;
    mc.dimX = 2;
    mc.dimY = 2;
    mc.dimZ = 1;
    mc.torus = true;
    mc.threads = std::min<u32>(opts.threads, 8);
    mc.words = 8;
    mc.iters = 2;
    mc.maxCycles = opts.maxCycles;
    mc.chipFault.watchdogCycles = opts.watchdogCycles;
    return mc;
}

/**
 * One link-fault iteration: degrade one directed link of a 2x2x1
 * torus mid-run and classify how the fault-tolerant fabric coped.
 * The halo-exchange workload is host-verified, so "golden" is the
 * verification itself; the fault-free baseline only measures the
 * healthy run length for the strike-cycle draw.
 */
InjectionResult
runLinkInjection(const CampaignOptions &opts, u32 iter)
{
    InjectionResult res;
    res.seed = verify::iterationSeed(opts.seed, iter);

    workloads::MultiChipConfig mc = campaignSystem(opts);
    Cycle baselineCycles = opts.maxCycles;
    {
        const workloads::MultiChipResult base =
            workloads::runHaloExchange(mc);
        if (!base.verified)
            panic("fault campaign fabric baseline failed (seed %llu)",
                  static_cast<unsigned long long>(res.seed));
        baselineCycles = base.cycles;
    }

    // Derive the fault: a victim among the links that physically
    // exist, a degradation class, and a strike cycle inside the
    // healthy execution window.
    Rng rng(res.seed ^ 0xFA17'FA17'FA17'FA17ULL);
    FaultSpec &spec = res.spec;
    spec.kind = FaultKind::Link;
    spec.cycle = 1 + rng.below(std::max<Cycle>(baselineCycles, 2) - 1);

    net::NetConfig netCfg;
    netCfg.dimX = mc.dimX;
    netCfg.dimY = mc.dimY;
    netCfg.dimZ = mc.dimZ;
    netCfg.torus = mc.torus;
    const net::Topology topo(netCfg);
    std::vector<std::pair<u32, u32>> links;
    for (u32 c = 0; c < netCfg.numChips(); ++c)
        for (u32 d = 0; d < net::kNumDirs; ++d)
            if (topo.linkExists(c, net::Dir(d)))
                links.emplace_back(c, topo.neighborOf(c, net::Dir(d)));

    net::LinkFault lf;
    const auto victim = links[rng.below(links.size())];
    lf.src = victim.first;
    lf.dst = victim.second;
    switch (rng.below(4)) {
      case 0: // dead: routing must detour around it
        lf.kind = net::LinkFaultKind::Dead;
        break;
      case 1: // flaky: checksum catches, retransmits absorb
        lf.kind = net::LinkFaultKind::Flaky;
        lf.flakyPpm = 20'000 + u32(rng.below(180'000));
        break;
      case 2: // flaky, every corruption escapes the checksum -> SDC
        lf.kind = net::LinkFaultKind::Flaky;
        lf.flakyPpm = 20'000 + u32(rng.below(180'000));
        lf.escapePpm = 1'000'000;
        break;
      default: // always-corrupt: retries exhaust -> FabricFailure
        lf.kind = net::LinkFaultKind::Flaky;
        lf.flakyPpm = 1'000'000;
        break;
    }
    spec.linkSrc = lf.src;
    spec.linkDst = lf.dst;
    spec.ppm = lf.flakyPpm;
    spec.escapePpm = lf.escapePpm;

    mc.faults.links.push_back(lf);
    mc.faults.seed = res.seed;
    mc.faults.atCycle = spec.cycle;
    mc.obs = opts.obs;
    mc.obs.tag = strprintf("i%u", iter);

    try {
        const workloads::MultiChipResult r =
            workloads::runHaloExchange(mc);
        res.cycles = r.cycles;
        switch (r.exitReason) {
          case arch::RunExitReason::AllHalted:
            res.outcome = r.verified ? Outcome::Masked : Outcome::Sdc;
            break;
          case arch::RunExitReason::FabricFailure:
            res.outcome = Outcome::Detected;
            res.detail = r.exitDiagnostic;
            break;
          case arch::RunExitReason::Watchdog:
            res.outcome = Outcome::Hang;
            res.detail = "watchdog";
            break;
          default:
            res.outcome = Outcome::Hang;
            res.detail = "cycle budget exhausted";
            break;
        }
    } catch (const GuestError &err) {
        res.outcome = err.kind() == GuestError::Kind::Check
                          ? Outcome::Detected
                          : Outcome::Crash;
        res.detail = err.what();
    }
    return res;
}

} // namespace

InjectionResult
runInjection(const CampaignOptions &opts, u32 iter)
{
    if (opts.kindSet && opts.kind == FaultKind::Link)
        return runLinkInjection(opts, iter);

    InjectionResult res;
    res.seed = verify::iterationSeed(opts.seed, iter);

    verify::GenOptions gen;
    gen.seed = res.seed;
    gen.threads = opts.threads;
    gen.bodyOps = opts.bodyOps;
    const verify::GenProgram gp = verify::generate(gen);

    const ChipConfig cfg = campaignChip(opts);

    // Golden final state from the architectural reference model. The
    // generator emits only verifiable, terminating programs; anything
    // else here is a harness bug.
    verify::RefInterpreter ref(gp.program, cfg.memBytes(), cfg.numThreads);
    for (u32 t = 0; t < gp.threads; ++t) {
        if (ref.run(t, opts.maxCycles) != verify::StepStatus::Halted)
            panic("fault campaign golden run did not halt (seed %llu)",
                  static_cast<unsigned long long>(res.seed));
    }

    // Fault-free timing run, solely to learn the healthy run length so
    // the injection cycle lands inside the program's execution window.
    Cycle baselineCycles = opts.maxCycles;
    {
        auto chip = spawnChip(gp, cfg);
        if (chip->run(opts.maxCycles) == arch::RunExit::AllHalted)
            baselineCycles = chip->now();
    }

    // Derive the fault. All draws come from a stream decorrelated from
    // the program generator's so spec and program are independent.
    Rng rng(res.seed ^ 0xFA17'FA17'FA17'FA17ULL);
    FaultSpec &spec = res.spec;
    spec.kind = opts.kindSet ? opts.kind : FaultKind(rng.below(3));
    spec.cycle = 1 + rng.below(std::max<Cycle>(baselineCycles, 2) - 1);
    switch (spec.kind) {
      case FaultKind::Register:
        spec.thread = u32(rng.below(gp.threads));
        spec.reg = 1 + u32(rng.below(isa::kNumRegs - 1));
        spec.bit = u32(rng.below(32));
        break;
      case FaultKind::Memory:
        // Strike the program's live data footprint (shared pool plus
        // the per-thread write regions), not arbitrary dead memory.
        spec.addr = gp.program.dataBase +
                    u32(rng.below(gp.program.data.size()));
        spec.bit = u32(rng.below(8));
        break;
      case FaultKind::CacheLine:
        spec.cache = u32(rng.below(cfg.numCaches()));
        spec.line = u32(rng.below(
            cfg.dcacheSets() * cfg.dcacheAssoc));
        break;
      case FaultKind::Link:
        panic("link faults take the multi-chip path");
    }

    // Injected run: execute to the strike cycle, perturb, run to
    // completion (or budget / watchdog) and classify the final state.
    // Only this run carries the campaign's observability options,
    // tagged per iteration so parallel jobs write distinct files.
    ChipConfig injCfg = cfg;
    injCfg.obs = opts.obs;
    injCfg.obs.tag = strprintf("i%u", iter);
    auto chip = spawnChip(gp, injCfg);
    ObsFlush flush{*chip};
    try {
        arch::RunExit exit = chip->run(spec.cycle);
        if (exit == arch::RunExit::AllHalted || chip->liveUnits() > 0) {
            inject(*chip, spec);
            if (chip->liveUnits() > 0 && chip->now() < opts.maxCycles)
                exit = chip->run(opts.maxCycles - chip->now());
        }
        res.cycles = chip->now();
        if (chip->liveUnits() > 0) {
            res.outcome = Outcome::Hang;
            res.detail = exit == arch::RunExit::Watchdog
                             ? "watchdog"
                             : "cycle budget exhausted";
            return res;
        }
    } catch (const GuestError &err) {
        res.cycles = chip->now();
        res.outcome = err.kind() == GuestError::Kind::Check
                          ? Outcome::Detected
                          : Outcome::Crash;
        res.detail = err.what();
        return res;
    }

    // Completed: masked iff memory and console match the golden model.
    const u32 memBytes = cfg.memBytes();
    std::vector<u8> mem(memBytes);
    chip->readPhys(0, mem.data(), memBytes);
    const bool clean =
        std::memcmp(mem.data(), ref.memory().data(), memBytes) == 0 &&
        chip->console() == ref.console();
    res.outcome = clean ? Outcome::Masked : Outcome::Sdc;
    return res;
}

CampaignResult
runCampaign(const CampaignOptions &opts, u32 jobs)
{
    std::vector<u32> iters(opts.iterations);
    std::iota(iters.begin(), iters.end(), 0u);

    CampaignResult res;
    res.opts = opts;
    res.injections =
        parallelSweep(iters, SimPool::resolveJobs(jobs),
                      [&](u32 iter) { return runInjection(opts, iter); });
    for (const InjectionResult &inj : res.injections)
        ++res.counts[size_t(inj.outcome)];
    return res;
}

namespace
{

std::string
jsonEscape(const std::string &in)
{
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
        if (c == '"' || c == '\\')
            out += strprintf("\\%c", c);
        else if (c == '\n')
            out += "\\n";
        else if (static_cast<unsigned char>(c) < 0x20)
            out += strprintf("\\u%04x", c);
        else
            out += c;
    }
    return out;
}

} // namespace

void
writeCampaignJson(const CampaignResult &result, std::FILE *out)
{
    const CampaignOptions &o = result.opts;
    std::fprintf(out,
                 "{\n"
                 "  \"schema\": \"cyclops-faultcamp-v1\",\n"
                 "  \"campaign\": {\"seed\": %llu, \"iterations\": %u, "
                 "\"threads\": %u, \"bodyOps\": %u, \"maxCycles\": %llu, "
                 "\"watchdogCycles\": %llu, \"kind\": \"%s\"},\n",
                 static_cast<unsigned long long>(o.seed), o.iterations,
                 o.threads, o.bodyOps,
                 static_cast<unsigned long long>(o.maxCycles),
                 static_cast<unsigned long long>(o.watchdogCycles),
                 o.kindSet ? faultKindName(o.kind) : "mixed");

    std::fprintf(out, "  \"counts\": {");
    for (unsigned c = 0; c < kNumOutcomes; ++c)
        std::fprintf(out, "%s\"%s\": %llu", c ? ", " : "",
                     outcomeName(Outcome(c)),
                     static_cast<unsigned long long>(result.counts[c]));
    std::fprintf(out, "},\n  \"injections\": [\n");

    for (size_t i = 0; i < result.injections.size(); ++i) {
        const InjectionResult &inj = result.injections[i];
        const FaultSpec &s = inj.spec;
        std::fprintf(out,
                     "    {\"iter\": %zu, \"seed\": %llu, \"kind\": "
                     "\"%s\", \"cycle\": %llu",
                     i, static_cast<unsigned long long>(inj.seed),
                     faultKindName(s.kind),
                     static_cast<unsigned long long>(s.cycle));
        switch (s.kind) {
          case FaultKind::Register:
            std::fprintf(out,
                         ", \"thread\": %u, \"reg\": %u, \"bit\": %u",
                         s.thread, s.reg, s.bit);
            break;
          case FaultKind::Memory:
            std::fprintf(out, ", \"addr\": %u, \"bit\": %u", s.addr,
                         s.bit);
            break;
          case FaultKind::CacheLine:
            std::fprintf(out, ", \"cache\": %u, \"line\": %u", s.cache,
                         s.line);
            break;
          case FaultKind::Link:
            std::fprintf(out,
                         ", \"linkSrc\": %u, \"linkDst\": %u, "
                         "\"ppm\": %u, \"escapePpm\": %u",
                         s.linkSrc, s.linkDst, s.ppm, s.escapePpm);
            break;
        }
        std::fprintf(out, ", \"outcome\": \"%s\", \"cycles\": %llu",
                     outcomeName(inj.outcome),
                     static_cast<unsigned long long>(inj.cycles));
        if (!inj.detail.empty())
            std::fprintf(out, ", \"detail\": \"%s\"",
                         jsonEscape(inj.detail).c_str());
        std::fprintf(out, "}%s\n",
                     i + 1 < result.injections.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
}

} // namespace cyclops::fault
