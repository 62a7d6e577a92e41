/**
 * @file
 * cyclops-run: assemble a Cyclops assembly file and execute it on a
 * simulated chip.
 *
 *   cyclops-run prog.s                 run on 1 thread
 *   cyclops-run -t 64 prog.s           spawn 64 software threads
 *   cyclops-run -t 8 --balanced prog.s balanced thread allocation
 *   cyclops-run --stats prog.s         dump every statistic at exit
 *   cyclops-run --disasm prog.s        print the assembled code, don't run
 *
 * Multi-chip systems (DESIGN.md section 16):
 *   --chips X,Y,Z      run an X x Y x Z torus of chips on the
 *                      cycle-driven fabric; the program is SPMD (the
 *                      same image boots on every chip, -t threads
 *                      each; SPRs 6/7 = chip id / chip count)
 *   --mesh             mesh links instead of torus wraparound
 *
 * Degraded chips and robustness (DESIGN.md section 13):
 *   --disable-tu N     fuse off one thread unit       (repeatable)
 *   --disable-quad N   fuse off a quad: TUs+FPU+cache (repeatable)
 *   --disable-fpu N    fuse off one quad's FPU        (repeatable)
 *   --disable-dcache N fuse off one data cache        (repeatable)
 *   --disable-icache N fuse off one I-cache           (repeatable)
 *   --disable-bank N   fail one memory bank           (repeatable)
 *   --cache-ways N     live ways per D-cache set (0 = all)
 *   --watchdog N       deadlock watchdog window in cycles (0 = off)
 *   --timeout-seconds N  wall-clock limit (graceful stop via SIGALRM)
 *
 * Fabric link faults (DESIGN.md section 18; need --chips; chips are
 * ids in the X,Y,Z grid, x fastest):
 *   --disable-link A->B    kill the directed link chip A -> chip B;
 *                          routing detours around it (repeatable)
 *   --link-flaky A->B=PPM  corrupt packets on the link with
 *                          probability PPM/1e6; the end-to-end
 *                          checksum catches and retransmits
 *   --link-derate A->B=N   divide the link bandwidth by N
 *   --fabric-fault-seed N  corruption-draw stream selector (the run
 *                          is byte-reproducible for a given seed)
 *   --fabric-fault-at N    apply the fault map mid-run at cycle N
 *                          (default 0: degraded from the first cycle)
 *
 * Observability (DESIGN.md section 10):
 *   --stats-json out.json    end-of-run counters/histograms as JSON
 *   --stats-csv out.csv      epoch-sampled counter time-series as CSV
 *   --stats-interval N       sample period in cycles (enables the series)
 *   --trace-out trace.json   Chrome-trace events (load in Perfetto);
 *                            with --chips, the fabric appears as its
 *                            own process with per-link tracks
 *   --trace-cats LIST        mem,cache,barrier,kernel,sched,net
 *                            or "all"
 *   --trace-capacity N       tracer ring size in events
 *   --fabric-stats out.json  fabric stats JSON (needs --chips; schema
 *                            cyclops-fabric-v1, per-link counters,
 *                            latency histograms, chip-pair matrix —
 *                            validated by tools/check_fabric.py)
 *   --fabric-heatmap out.csv link/pair congestion heatmap CSV (needs
 *                            --chips; DESIGN.md section 17)
 *   --prof-out base          PC-sampling profile: base (JSON report),
 *                            base.folded (flamegraph folded stacks),
 *                            base.heatmap.csv (bank heatmap)
 *   --prof-interval N        sample period in cycles (default 512
 *                            when --prof-out is given)
 *   --manifest out.json      per-run manifest (config hash,
 *                            git describe, headline counters)
 *
 * Threads start at the `start` label (or address 0) with the kernel's
 * register conventions: r1 = stack pointer, r4 = software thread
 * index, r5 = thread count. Console output (traps) goes to stdout.
 *
 * Exit status: 0 success, 1 guest fault or host error, 2 usage or
 * configuration error, 3 cycle limit, 4 deadlock watchdog, 5 fabric
 * failure (a remote access was abandoned: the fault map partitions
 * the system or a retry storm exhausted the bounded retries),
 * 128+signal on SIGINT/SIGTERM/timeout (state flushed first).
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "arch/chip.h"
#include "arch/system.h"
#include "common/config.h"
#include "common/log.h"
#include "common/manifest.h"
#include "common/parse.h"
#include "common/trace.h"
#include "isa/assembler.h"
#include "isa/disassembler.h"
#include "kernel/kernel.h"

using namespace cyclops;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [-t N] [--balanced] [--stats] [--disasm] "
                 "[--max-cycles N]\n"
                 "       [--disable-tu N] [--disable-quad N] "
                 "[--disable-fpu N]\n"
                 "       [--disable-dcache N] [--disable-icache N] "
                 "[--disable-bank N]\n"
                 "       [--cache-ways N] [--watchdog N] "
                 "[--timeout-seconds N]\n"
                 "       [--stats-json P] [--stats-csv P] "
                 "[--stats-interval N]\n"
                 "       [--trace-out P] [--trace-cats LIST] "
                 "[--trace-capacity N]\n"
                 "       [--prof-out P] [--prof-interval N]\n"
                 "       [--fabric-stats P] [--fabric-heatmap P]\n"
                 "       [--manifest P]\n"
                 "       [--disable-link A->B] [--link-flaky A->B=PPM]\n"
                 "       [--link-derate A->B=N] [--fabric-fault-seed N]\n"
                 "       [--fabric-fault-at N]\n"
                 "       [--chips X,Y,Z] [--mesh] prog.s\n",
                 argv0);
}

/**
 * Report a malformed command line and exit 2. CLI mistakes are user
 * errors with structured messages, never fatal()/abort paths.
 */
[[noreturn]] void
argError(const char *argv0, const std::string &why)
{
    std::fprintf(stderr, "%s: %s\n", argv0, why.c_str());
    usage(argv0);
    std::exit(2);
}

/** Parse a directed link "A->B"; false if malformed. */
bool
parseLink(const char *text, u32 *src, u32 *dst)
{
    unsigned a = 0, b = 0;
    char tail = 0;
    if (std::sscanf(text, "%u->%u%c", &a, &b, &tail) != 2)
        return false;
    *src = u32(a);
    *dst = u32(b);
    return true;
}

/** Parse a valued directed link "A->B=N"; false if malformed. */
bool
parseLinkValue(const char *text, u32 *src, u32 *dst, u32 *value)
{
    unsigned a = 0, b = 0, v = 0;
    char tail = 0;
    if (std::sscanf(text, "%u->%u=%u%c", &a, &b, &v, &tail) != 3)
        return false;
    *src = u32(a);
    *dst = u32(b);
    *value = u32(v);
    return true;
}

/** Parse "X,Y,Z" (or "XxYxZ") system dimensions; false if malformed. */
bool
parseDims(const char *text, u32 dims[3])
{
    unsigned x = 0, y = 0, z = 0;
    char sep1 = 0, sep2 = 0, tail = 0;
    const int n = std::sscanf(text, "%u%c%u%c%u%c", &x, &sep1, &y,
                              &sep2, &z, &tail);
    if (n != 5 || (sep1 != ',' && sep1 != 'x') || sep2 != sep1)
        return false;
    if (x == 0 || y == 0 || z == 0)
        return false;
    dims[0] = u32(x);
    dims[1] = u32(y);
    dims[2] = u32(z);
    return true;
}

void
stopHandler(int sig)
{
    arch::requestRunStop(sig);
}

/**
 * Multi-chip run (--chips): the same SPMD image is booted and spawned
 * on every chip of the torus/mesh, then the whole system advances in
 * fabric lockstep (DESIGN.md section 16). Console output is printed
 * per chip; the summary and manifest report system-wide sums plus the
 * fabric traffic counters.
 */
int
runSystem(const char *argv0, const isa::Program &prog, const char *path,
          const arch::SystemConfig &sysCfg, u32 threads, bool balanced,
          bool dumpStats, u64 maxCycles, const std::string &manifestPath,
          u64 startNs)
{
    arch::System sys(sysCfg);
    std::vector<std::unique_ptr<kernel::Kernel>> kernels;
    for (u32 c = 0; c < sys.numChips(); ++c) {
        auto kern = std::make_unique<kernel::Kernel>(
            sys.chip(c), balanced ? kernel::AllocPolicy::Balanced
                                  : kernel::AllocPolicy::Sequential);
        kern->load(prog);
        if (threads > kern->usableThreads())
            argError(argv0,
                     strprintf("-t %u exceeds the %u usable threads",
                               threads, kern->usableThreads()));
        kern->spawn(threads, prog.entry);
        kernels.push_back(std::move(kern));
    }

    const auto flushConsoles = [&sys] {
        for (u32 c = 0; c < sys.numChips(); ++c) {
            const std::string &text = sys.chip(c).console();
            if (text.empty())
                continue;
            std::printf("[chip %u]\n", c);
            std::fputs(text.c_str(), stdout);
        }
    };

    arch::RunExit exit;
    try {
        exit = sys.run(maxCycles);
    } catch (const GuestError &err) {
        flushConsoles();
        std::fprintf(stderr, "\n[guest %s at cycle %llu: %s]\n",
                     err.kind() == GuestError::Kind::Check ? "fault"
                                                           : "crash",
                     static_cast<unsigned long long>(sys.now()),
                     err.what());
        return 1;
    }
    sys.writeObservability();
    flushConsoles();

    if (!manifestPath.empty()) {
        RunManifest m;
        m.tool = "cyclops-run";
        m.workload = path;
        m.config = &sysCfg.chip;
        m.simCycles = sys.now();
        m.instructions = sys.totalInstructions();
        m.wallSeconds = double(hostNowNs() - startNs) / 1e9;
        m.exitReason = arch::runExitName(exit.reason);
        writeRunManifest(sysCfg.chip.obs.expandPath(manifestPath), m);
    }

    switch (exit.reason) {
      case arch::RunExitReason::CycleLimit:
        std::fprintf(stderr, "\n[cycle limit %llu reached]\n",
                     static_cast<unsigned long long>(maxCycles));
        return 3;
      case arch::RunExitReason::Watchdog:
        std::fprintf(stderr, "\n[deadlock watchdog]\n%s",
                     exit.diagnostic.c_str());
        return 4;
      case arch::RunExitReason::Signal:
        std::fprintf(stderr,
                     "\n[stopped by %s at cycle %llu; state flushed]\n",
                     exit.signal == SIGALRM
                         ? "wall-clock timeout"
                         : exit.signal == SIGINT ? "SIGINT" : "SIGTERM",
                     static_cast<unsigned long long>(exit.at));
        return 128 + exit.signal;
      case arch::RunExitReason::FabricFailure:
        std::fprintf(stderr, "\n[fabric failure]\n%s\n",
                     exit.diagnostic.c_str());
        return 5;
      case arch::RunExitReason::AllHalted:
        break;
    }

    const net::Fabric &fabric = sys.fabric();
    std::fprintf(
        stderr,
        "\n[%llu cycles, %llu instructions, %u chips x %u threads; "
        "fabric %llu messages, %llu bytes, %llu queue cycles]\n",
        static_cast<unsigned long long>(sys.now()),
        static_cast<unsigned long long>(sys.totalInstructions()),
        sys.numChips(), threads,
        static_cast<unsigned long long>(fabric.messages()),
        static_cast<unsigned long long>(fabric.bytesMoved()),
        static_cast<unsigned long long>(fabric.queueCycles()));
    if (fabric.faultsActive())
        std::fprintf(
            stderr,
            "[fabric faults: %llu rerouted, %llu retransmits, "
            "%llu crc errors, %llu dropped flits]\n",
            static_cast<unsigned long long>(fabric.rerouted()),
            static_cast<unsigned long long>(fabric.retransmits()),
            static_cast<unsigned long long>(fabric.crcErrors()),
            static_cast<unsigned long long>(fabric.flitsDropped()));
    if (dumpStats)
        for (u32 c = 0; c < sys.numChips(); ++c) {
            std::fprintf(stderr, "--- chip %u ---\n", c);
            std::fputs(sys.chip(c).stats().dump().c_str(), stderr);
        }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    u32 threads = 1;
    bool balanced = false;
    bool dumpStats = false;
    bool disasmOnly = false;
    u64 maxCycles = 1'000'000'000ull;
    u64 timeoutSeconds = 0;
    ObsConfig obs;
    FaultConfig faultCfg;
    std::string manifestPath;
    u32 chipDims[3] = {0, 0, 0};
    bool mesh = false;
    net::FabricFaultMap faultMap;
    const char *path = nullptr;
    const u64 startNs = hostNowNs();

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        // Flags taking one numeric operand share checked parsing.
        auto num = [&]() -> u64 {
            if (i + 1 >= argc)
                argError(argv[0],
                         strprintf("%s needs a numeric argument", arg));
            u64 v = 0;
            if (!parseU64(argv[++i], &v))
                argError(argv[0],
                         strprintf("%s: '%s' is not a nonnegative "
                                   "number", arg, argv[i]));
            return v;
        };
        if (std::strcmp(arg, "-t") == 0) {
            threads = u32(num());
        } else if (std::strcmp(arg, "--balanced") == 0) {
            balanced = true;
        } else if (std::strcmp(arg, "--stats") == 0) {
            dumpStats = true;
        } else if (std::strcmp(arg, "--disasm") == 0) {
            disasmOnly = true;
        } else if (std::strcmp(arg, "--max-cycles") == 0) {
            maxCycles = num();
        } else if (std::strcmp(arg, "--disable-tu") == 0) {
            faultCfg.disabledTus.push_back(u32(num()));
        } else if (std::strcmp(arg, "--disable-quad") == 0) {
            faultCfg.disabledQuads.push_back(u32(num()));
        } else if (std::strcmp(arg, "--disable-fpu") == 0) {
            faultCfg.disabledFpus.push_back(u32(num()));
        } else if (std::strcmp(arg, "--disable-dcache") == 0) {
            faultCfg.disabledDcaches.push_back(u32(num()));
        } else if (std::strcmp(arg, "--disable-icache") == 0) {
            faultCfg.disabledIcaches.push_back(u32(num()));
        } else if (std::strcmp(arg, "--disable-bank") == 0) {
            faultCfg.disabledBanks.push_back(u32(num()));
        } else if (std::strcmp(arg, "--cache-ways") == 0) {
            faultCfg.cacheWays = u32(num());
        } else if (std::strcmp(arg, "--watchdog") == 0) {
            faultCfg.watchdogCycles = num();
        } else if (std::strcmp(arg, "--timeout-seconds") == 0) {
            timeoutSeconds = num();
        } else if (std::strcmp(arg, "--stats-json") == 0 &&
                   i + 1 < argc) {
            obs.statsJson = argv[++i];
        } else if (std::strcmp(arg, "--stats-csv") == 0 && i + 1 < argc) {
            obs.statsCsv = argv[++i];
        } else if (std::strcmp(arg, "--stats-interval") == 0) {
            obs.statsInterval = u32(num());
        } else if (std::strcmp(arg, "--trace-out") == 0 && i + 1 < argc) {
            obs.traceOut = argv[++i];
        } else if (std::strcmp(arg, "--trace-cats") == 0 &&
                   i + 1 < argc) {
            obs.traceCats = parseTraceCats(argv[++i]);
        } else if (std::strcmp(arg, "--trace-capacity") == 0) {
            obs.traceCapacity = u32(num());
        } else if (std::strcmp(arg, "--prof-out") == 0 && i + 1 < argc) {
            obs.profOut = argv[++i];
        } else if (std::strcmp(arg, "--prof-interval") == 0) {
            obs.profInterval = u32(num());
        } else if (std::strcmp(arg, "--fabric-stats") == 0 &&
                   i + 1 < argc) {
            obs.fabricStats = argv[++i];
        } else if (std::strcmp(arg, "--fabric-heatmap") == 0 &&
                   i + 1 < argc) {
            obs.fabricHeatmap = argv[++i];
        } else if (std::strcmp(arg, "--manifest") == 0 && i + 1 < argc) {
            manifestPath = argv[++i];
        } else if (std::strcmp(arg, "--disable-link") == 0 &&
                   i + 1 < argc) {
            net::LinkFault lf;
            if (!parseLink(argv[++i], &lf.src, &lf.dst))
                argError(argv[0],
                         strprintf("--disable-link: '%s' is not "
                                   "SRC->DST", argv[i]));
            faultMap.links.push_back(lf);
        } else if (std::strcmp(arg, "--link-flaky") == 0 &&
                   i + 1 < argc) {
            net::LinkFault lf;
            lf.kind = net::LinkFaultKind::Flaky;
            if (!parseLinkValue(argv[++i], &lf.src, &lf.dst,
                                &lf.flakyPpm))
                argError(argv[0],
                         strprintf("--link-flaky: '%s' is not "
                                   "SRC->DST=PPM", argv[i]));
            faultMap.links.push_back(lf);
        } else if (std::strcmp(arg, "--link-derate") == 0 &&
                   i + 1 < argc) {
            net::LinkFault lf;
            lf.kind = net::LinkFaultKind::Derated;
            if (!parseLinkValue(argv[++i], &lf.src, &lf.dst,
                                &lf.derate))
                argError(argv[0],
                         strprintf("--link-derate: '%s' is not "
                                   "SRC->DST=N", argv[i]));
            faultMap.links.push_back(lf);
        } else if (std::strcmp(arg, "--fabric-fault-seed") == 0) {
            faultMap.seed = num();
        } else if (std::strcmp(arg, "--fabric-fault-at") == 0) {
            faultMap.atCycle = num();
        } else if (std::strcmp(arg, "--chips") == 0 && i + 1 < argc) {
            if (!parseDims(argv[++i], chipDims))
                argError(argv[0],
                         strprintf("--chips: '%s' is not X,Y,Z with "
                                   "nonzero dimensions", argv[i]));
        } else if (std::strcmp(arg, "--mesh") == 0) {
            mesh = true;
        } else if (arg[0] == '-') {
            argError(argv[0], strprintf("unknown argument '%s'", arg));
        } else if (path) {
            argError(argv[0], "more than one program file");
        } else {
            path = arg;
        }
    }
    if (!path)
        argError(argv[0], "no program file");
    if (threads == 0)
        argError(argv[0], "-t must be nonzero");
    if (mesh && chipDims[0] == 0)
        argError(argv[0], "--mesh needs --chips X,Y,Z");
    if (chipDims[0] == 0 &&
        (!obs.fabricStats.empty() || !obs.fabricHeatmap.empty()))
        argError(argv[0],
                 "--fabric-stats/--fabric-heatmap need --chips X,Y,Z");
    if (chipDims[0] == 0 && !faultMap.empty())
        argError(argv[0],
                 "--disable-link/--link-flaky/--link-derate need "
                 "--chips X,Y,Z");

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open %s\n", argv[0], path);
        return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();

    isa::AsmResult result = isa::assemble(buffer.str());
    if (!result.ok) {
        std::fprintf(stderr, "%s: %s: %s\n", argv[0], path,
                     result.error.c_str());
        return 1;
    }
    const isa::Program &prog = result.program;

    if (disasmOnly) {
        for (size_t i = 0; i < prog.text.size(); ++i) {
            const u32 addr = prog.textBase + u32(i) * 4;
            for (const auto &[name, value] : prog.symbols)
                if (value == addr)
                    std::printf("%s:\n", name.c_str());
            std::printf("  %06x:  %08x  %s\n", addr, prog.text[i],
                        isa::disassembleWord(prog.text[i]).c_str());
        }
        return 0;
    }

    // Tracing to a file without an explicit category list records all.
    if (!obs.traceOut.empty() && obs.traceCats == 0)
        obs.traceCats = kTraceAll;
    // Profiling to a file without an explicit period samples densely.
    if (!obs.profOut.empty() && obs.profInterval == 0)
        obs.profInterval = 512;
    ChipConfig chipCfg;
    chipCfg.obs = obs;
    chipCfg.fault = faultCfg;
    // A bad configuration (fault map out of range, no surviving cache,
    // ...) is a user error: report it structurally, don't abort.
    if (const std::string err = chipCfg.check(); !err.empty())
        argError(argv[0], err);

    // Stop gracefully on ^C / kill / wall-clock timeout: the run loop
    // returns at its next service point and all state gets flushed.
    std::signal(SIGINT, stopHandler);
    std::signal(SIGTERM, stopHandler);
    if (timeoutSeconds != 0) {
        std::signal(SIGALRM, stopHandler);
        alarm(u32(timeoutSeconds));
    }

    if (chipDims[0] != 0) {
        arch::SystemConfig sysCfg;
        sysCfg.chip = chipCfg;
        sysCfg.fabric.net.dimX = chipDims[0];
        sysCfg.fabric.net.dimY = chipDims[1];
        sysCfg.fabric.net.dimZ = chipDims[2];
        sysCfg.fabric.net.torus = !mesh;
        sysCfg.fabric.faults = faultMap;
        if (const std::string err = sysCfg.check(); !err.empty())
            argError(argv[0], err);
        return runSystem(argv[0], prog, path, sysCfg, threads, balanced,
                         dumpStats, maxCycles, manifestPath, startNs);
    }

    arch::Chip chip(chipCfg);
    kernel::Kernel kern(chip, balanced ? kernel::AllocPolicy::Balanced
                                       : kernel::AllocPolicy::Sequential);
    kern.load(prog);
    if (threads > kern.usableThreads())
        argError(argv[0],
                 strprintf("-t %u exceeds the %u usable threads",
                           threads, kern.usableThreads()));
    kern.spawn(threads, prog.entry);

    arch::RunExit exit;
    try {
        exit = kern.run(maxCycles);
    } catch (const GuestError &err) {
        std::fputs(chip.console().c_str(), stdout);
        std::fprintf(stderr, "\n[guest %s at cycle %llu: %s]\n",
                     err.kind() == GuestError::Kind::Check ? "fault"
                                                           : "crash",
                     static_cast<unsigned long long>(chip.now()),
                     err.what());
        return 1;
    }
    chip.writeObservability();
    std::fputs(chip.console().c_str(), stdout);

    if (!manifestPath.empty()) {
        RunManifest m;
        m.tool = "cyclops-run";
        m.workload = path;
        m.config = &chipCfg;
        m.simCycles = chip.now();
        m.instructions = chip.totalInstructions();
        m.wallSeconds = double(hostNowNs() - startNs) / 1e9;
        m.exitReason = arch::runExitName(exit.reason);
        writeRunManifest(obs.expandPath(manifestPath), m);
    }

    switch (exit.reason) {
      case arch::RunExitReason::CycleLimit:
        std::fprintf(stderr, "\n[cycle limit %llu reached]\n",
                     static_cast<unsigned long long>(maxCycles));
        return 3;
      case arch::RunExitReason::Watchdog:
        std::fprintf(stderr, "\n[deadlock watchdog]\n%s",
                     exit.diagnostic.c_str());
        return 4;
      case arch::RunExitReason::Signal:
        std::fprintf(stderr,
                     "\n[stopped by %s at cycle %llu; state flushed]\n",
                     exit.signal == SIGALRM
                         ? "wall-clock timeout"
                         : exit.signal == SIGINT ? "SIGINT" : "SIGTERM",
                     static_cast<unsigned long long>(exit.at));
        return 128 + exit.signal;
      case arch::RunExitReason::FabricFailure: // no fabric on one chip
      case arch::RunExitReason::AllHalted:
        break;
    }

    std::fprintf(stderr,
                 "\n[%llu cycles, %llu instructions, %u threads; "
                 "run %llu / stall %llu]\n",
                 static_cast<unsigned long long>(chip.now()),
                 static_cast<unsigned long long>(
                     chip.totalInstructions()),
                 threads,
                 static_cast<unsigned long long>(chip.totalRunCycles()),
                 static_cast<unsigned long long>(
                     chip.totalStallCycles()));
    if (dumpStats)
        std::fputs(chip.stats().dump().c_str(), stderr);
    return 0;
}
