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
 *   cyclops-run --chips 2,2,1 prog.s   SPMD on a 2x2x1 torus of chips
 *                                      (SPRs 6/7 = chip id / count)
 *
 * The options are rows of a common/cli.h table; the usage text lists
 * them. Degraded chips: DESIGN.md section 13; fabric link faults
 * (chips are ids in the X,Y,Z grid, x fastest): section 18;
 * observability: section 10.
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
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "arch/chip.h"
#include "arch/system.h"
#include "common/cli.h"
#include "common/config.h"
#include "common/log.h"
#include "common/manifest.h"
#include "common/parse.h"
#include "isa/assembler.h"
#include "isa/disassembler.h"
#include "kernel/kernel.h"

using namespace cyclops;

namespace
{

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
runSystem(const cli::OptionTable &table, const char *argv0,
          const isa::Program &prog, const char *path,
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
            table.fail(argv0,
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
    u32 timeoutSeconds = 0;
    ObsConfig obs;
    FaultConfig faultCfg;
    std::string manifestPath;
    u32 chipDims[3] = {0, 0, 0};
    bool mesh = false;
    net::FabricFaultMap faultMap;
    const u64 startNs = hostNowNs();

    // A repeatable link-fault row; @p value is the field "=N" sets.
    auto link = [&faultMap](const char *name, net::LinkFaultKind kind,
                            u32 net::LinkFault::*value,
                            const char *operand, const char *help) {
        return cli::Option{
            name, operand, help,
            [&faultMap, kind, value, operand](const char *v) {
                net::LinkFault lf;
                lf.kind = kind;
                if (!parseLink(v, &lf.src, &lf.dst,
                               value ? &(lf.*value) : nullptr))
                    return strprintf("'%s' is not %s", v, operand);
                faultMap.links.push_back(lf);
                return std::string();
            }};
    };
    cli::OptionTable table("prog.s");
    table.add(cli::u32Value("-t", &threads, "software threads (default 1)"));
    table.add(cli::flag("--balanced", &balanced,
                        "balanced thread allocation"));
    table.add(cli::flag("--stats", &dumpStats,
                        "dump every statistic at exit"));
    table.add(cli::flag("--disasm", &disasmOnly,
                        "print the assembled code, don't run"));
    table.add(cli::u64Value("--max-cycles", &maxCycles,
                            "cycle limit (default 1e9; exit 3)"));
    table.addFault(faultCfg);
    table.add(cli::u32Value("--timeout-seconds", &timeoutSeconds,
                            "wall-clock limit, graceful stop (SIGALRM)"));
    table.addObs(obs);
    table.addOutputs(obs, manifestPath);
    table.addFabric(obs);
    table.add({"--chips", "X,Y,Z", "run a torus of chips (also XxYxZ)",
               [&chipDims](const char *v) {
                   return parseDims(v, chipDims)
                              ? std::string()
                              : strprintf("'%s' is not X,Y,Z with "
                                          "nonzero dimensions", v);
               }});
    table.add(cli::flag("--mesh", &mesh, "mesh links, no torus wraparound"));
    table.add(link("--disable-link", net::LinkFaultKind::Dead, nullptr,
                   "A->B", "kill directed link A->B (repeatable)"));
    table.add(link("--link-flaky", net::LinkFaultKind::Flaky,
                   &net::LinkFault::flakyPpm, "A->B=PPM",
                   "corrupt PPM/1e6 of the link's packets"));
    table.add(link("--link-derate", net::LinkFaultKind::Derated,
                   &net::LinkFault::derate, "A->B=N",
                   "divide the link's bandwidth by N"));
    table.add(cli::u64Value("--fabric-fault-seed", &faultMap.seed,
                            "link-corruption draw stream selector"));
    table.add(cli::u64Value("--fabric-fault-at", &faultMap.atCycle,
                            "apply the link faults at cycle N "
                            "(default 0)"));

    std::vector<std::string> files;
    if (const std::string why = table.parse(argc, argv, &files);
        !why.empty())
        table.fail(argv[0], why);
    if (files.empty())
        table.fail(argv[0], "no program file");
    if (files.size() > 1)
        table.fail(argv[0], "more than one program file");
    const char *path = files[0].c_str();
    if (threads == 0)
        table.fail(argv[0], "-t must be nonzero");
    if (mesh && chipDims[0] == 0)
        table.fail(argv[0], "--mesh needs --chips X,Y,Z");
    if (chipDims[0] == 0 &&
        (!obs.fabricStats.empty() || !obs.fabricHeatmap.empty()))
        table.fail(argv[0],
                 "--fabric-stats/--fabric-heatmap need --chips X,Y,Z");
    if (chipDims[0] == 0 && !faultMap.empty())
        table.fail(argv[0], "--disable-link/--link-flaky/--link-derate "
                            "need --chips X,Y,Z");

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

    ChipConfig chipCfg;
    chipCfg.obs = obs;
    chipCfg.fault = faultCfg;
    // A bad configuration (fault map out of range, no surviving cache,
    // ...) is a user error: report it structurally, don't abort.
    if (const std::string err = chipCfg.check(); !err.empty())
        table.fail(argv[0], err);

    // Stop gracefully on ^C / kill / wall-clock timeout: the run loop
    // returns at its next service point and all state gets flushed.
    std::signal(SIGINT, stopHandler);
    std::signal(SIGTERM, stopHandler);
    if (timeoutSeconds != 0) {
        std::signal(SIGALRM, stopHandler);
        alarm(timeoutSeconds);
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
            table.fail(argv[0], err);
        return runSystem(table, argv[0], prog, path, sysCfg, threads, balanced,
                         dumpStats, maxCycles, manifestPath, startNs);
    }

    arch::Chip chip(chipCfg);
    kernel::Kernel kern(chip, balanced ? kernel::AllocPolicy::Balanced
                                       : kernel::AllocPolicy::Sequential);
    kern.load(prog);
    if (threads > kern.usableThreads())
        table.fail(argv[0],
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
