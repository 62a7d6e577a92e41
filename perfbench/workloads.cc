/**
 * @file
 * Workload runner of the repository benchmark. perfbench/run.py starts
 * it once per invocation and reduces what it prints.
 *
 *   perfbench_workloads timed  <workload> <seconds>
 *   perfbench_workloads traced <workload> <seconds> <outdir>
 *   perfbench_workloads dstream <outdir>
 *
 * Both run modes first construct the workload's machine kSetupReps
 * times through its public constructor (setup_s).
 *
 * timed: calls the workload's public entry point back to back until
 * <seconds> have passed. Every knob keeps the program's
 * default: no engine, worker, sampling or observability setting.
 *
 * traced: alternates a default run with a traced one (the stats
 * registry exported to <outdir>, every trace category recording) until
 * <seconds> have passed, so run.py can read operation counts and the
 * tracing overhead.
 *
 * dstream: one distributed-STREAM run on the 4x4x4 torus with its
 * stats exported, for its verification and counts.
 *
 * Every record is one JSON object on its own stdout line. Timestamps
 * are steady_clock (CLOCK_MONOTONIC) ns, the clock run.py reads too,
 * so all spans share one time base.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "arch/chip.h"
#include "arch/system.h"
#include "common/trace.h"
#include "workloads/multichip.h"
#include "workloads/splash.h"
#include "workloads/stream.h"

using namespace cyclops;
using namespace cyclops::workloads;

namespace
{

/** Machine constructions timed per invocation for setup_s. */
constexpr int kSetupReps = 31;

u64
nowNs()
{
    return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count());
}

/** Outcome of one workload call, in the fields every workload shares. */
struct Outcome
{
    u64 simCycles = 0;
    u64 instructions = 0;
    bool verified = false;
    arch::RunExitReason exit = arch::RunExitReason::AllHalted;
};

/** The halo shapes: torus dims, face words, iterations. */
MultiChipConfig
haloConfig(const std::string &name)
{
    MultiChipConfig mc;
    if (name == "halo_4x4x4") {
        mc.dimX = mc.dimY = mc.dimZ = 4;
        mc.words = 256;
        mc.iters = 16;
    } else {
        mc.dimX = mc.dimY = 2;
        mc.dimZ = 1;
        mc.words = 680;
        mc.iters = 256;
    }
    return mc;
}

bool
isHalo(const std::string &name)
{
    return name == "halo_4x4x4" || name == "halo_2x2x1";
}

bool
known(const std::string &name)
{
    return name == "stream_triad" || name == "fft_64k" || isHalo(name);
}

/** One call of the workload's public entry point. */
Outcome
runOnce(const std::string &name, const ObsConfig &obs)
{
    Outcome out;
    if (name == "stream_triad") {
        StreamConfig cfg;
        cfg.kernel = StreamKernel::Triad;
        cfg.threads = 126;
        cfg.elementsPerThread = 2000;
        ChipConfig chipCfg;
        chipCfg.obs = obs;
        // runStream fatal()s unless every run ends AllHalted.
        const StreamResult r = runStream(cfg, chipCfg);
        out.simCycles = r.simCycles;
        out.instructions = r.instructions;
        out.verified = r.verified;
    } else if (name == "fft_64k") {
        ChipConfig chipCfg;
        chipCfg.obs = obs;
        // runFft fatal()s unless the run ends AllHalted.
        const SplashResult r = runFft(64, 65536, BarrierKind::Hw, chipCfg);
        out.simCycles = r.cycles;
        out.instructions = r.instructions;
        out.verified = r.verified;
    } else {
        MultiChipConfig mc = haloConfig(name);
        mc.obs = obs;
        const MultiChipResult r = runHaloExchange(mc);
        out.simCycles = r.cycles;
        out.instructions = r.instructions;
        out.verified = r.verified;
        out.exit = r.exitReason;
    }
    return out;
}

/** Construct (and destroy) the workload's machine once. */
void
constructMachine(const std::string &name)
{
    if (isHalo(name)) {
        arch::System sys(haloConfig(name).systemConfig());
    } else {
        arch::Chip chip{ChipConfig{}};
    }
}

void
printRun(const char *kind, const Outcome &o, u64 t0, u64 t1)
{
    std::printf("{\"kind\": \"%s\", \"t0\": %llu, \"t1\": %llu, "
                "\"sim_cycles\": %llu, \"instructions\": %llu, "
                "\"verified\": %s, \"exit\": \"%s\"}\n",
                kind, static_cast<unsigned long long>(t0),
                static_cast<unsigned long long>(t1),
                static_cast<unsigned long long>(o.simCycles),
                static_cast<unsigned long long>(o.instructions),
                o.verified ? "true" : "false", arch::runExitName(o.exit));
    std::fflush(stdout);
}

/** Run @p name once and print its record (run.py checks it). */
void
timedCall(const std::string &name, const char *kind, const ObsConfig &obs)
{
    const u64 t0 = nowNs();
    const Outcome o = runOnce(name, obs);
    printRun(kind, o, t0, nowNs());
}

ObsConfig
tracedObs(const std::string &outdir, const std::string &name)
{
    ObsConfig obs;
    obs.statsJson = outdir + "/" + name + ".stats.json";
    if (isHalo(name) || name == "dstream")
        obs.fabricStats = outdir + "/" + name + ".fabric.json";
    obs.traceCats = kTraceAll;
    obs.traceCapacity = 4096;
    return obs;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_workloads timed <workload> <seconds>\n"
                 "       perfbench_workloads traced <workload> <seconds> "
                 "<outdir>\n"
                 "       perfbench_workloads dstream <outdir>\n"
                 "workloads: stream_triad fft_64k halo_4x4x4 "
                 "halo_2x2x1\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string mode = argv[1];

    if (mode == "dstream") {
        MultiChipConfig mc;
        mc.dimX = mc.dimY = mc.dimZ = 4;
        mc.words = 680;
        mc.obs = tracedObs(argv[2], "dstream");
        const u64 t0 = nowNs();
        const MultiChipResult r = runDistributedStream(mc);
        const Outcome o{r.cycles, r.instructions, r.verified, r.exitReason};
        printRun("dstream", o, t0, nowNs());
        return 0;
    }

    if (argc < 4)
        return usage();
    const std::string name = argv[2];
    const double seconds = std::atof(argv[3]);
    if (!known(name) || !(seconds > 0))
        return usage();

    if (mode != "timed" && !(mode == "traced" && argc >= 5))
        return usage();
    for (int i = 0; i < kSetupReps; ++i) {
        const u64 t0 = nowNs();
        constructMachine(name);
        std::printf("{\"kind\": \"setup\", \"t0\": %llu, \"t1\": %llu}\n",
                    static_cast<unsigned long long>(t0),
                    static_cast<unsigned long long>(nowNs()));
    }
    const u64 start = nowNs();
    if (mode == "timed") {
        do {
            timedCall(name, "run", ObsConfig{});
        } while (double(nowNs() - start) * 1e-9 < seconds);
    } else {
        const ObsConfig traced = tracedObs(argv[4], name);
        do {
            timedCall(name, "run", ObsConfig{});
            timedCall(name, "traced", traced);
        } while (double(nowNs() - start) * 1e-9 < seconds);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"kind\": \"end\", \"peak_rss_kb\": %ld}\n", ru.ru_maxrss);
    return 0;
}
