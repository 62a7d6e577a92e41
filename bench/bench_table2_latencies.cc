/**
 * @file
 * Reproduces Table 2 of the paper: per-instruction execution and
 * latency cycles, measured on the simulator with dependent-consumer
 * microbenchmarks, plus the hardware-parameter section.
 */

#include <functional>

#include "arch/chip.h"
#include "arch/thread_unit.h"
#include "bench_util.h"
#include "isa/builder.h"

using namespace cyclops;
using namespace cyclops::arch;
using cyclops::bench::Options;
using isa::Opcode;
using isa::ProgramBuilder;

namespace
{

Cycle
runProgram(const isa::Program &prog, ThreadId tid)
{
    ChipConfig cfg;
    cfg.pibEnabled = false;
    Chip chip(cfg);
    chip.loadProgram(prog);
    chip.setUnit(tid,
                 std::make_unique<ThreadUnit>(tid, chip, prog.entry));
    chip.activate(tid);
    chip.run(1'000'000);
    return chip.now();
}

Cycle
measure(const std::function<void(ProgramBuilder &)> &body, ThreadId tid = 0)
{
    ProgramBuilder b;
    body(b);
    b.halt();
    return runProgram(b.finish(), tid);
}

/** Dependent-consumer latency of a producing instruction. */
Cycle
latencyOf(const std::function<void(ProgramBuilder &, bool)> &emit)
{
    const Cycle indep = measure([&](ProgramBuilder &b) {
        emit(b, false);
    });
    const Cycle dep = measure([&](ProgramBuilder &b) {
        emit(b, true);
    });
    return dep - indep;
}

struct MemSetup
{
    u8 ig;
    bool warm;
    ThreadId tid;
};

Cycle
memLatency(const MemSetup &setup)
{
    auto build = [&](bool dependent) {
        ProgramBuilder b;
        const u32 buf = b.allocData(64, 64);
        b.li(10, igAddr(setup.ig, buf));
        if (setup.warm)
            b.lw(4, 0, 10);
        for (int i = 0; i < 64; ++i)
            b.addi(11, 11, 1); // drain
        b.lw(5, 0, 10);
        if (dependent)
            b.addi(6, 5, 1);
        else
            b.addi(6, 0, 1);
        b.halt();
        return b.finish();
    };
    const Cycle indep = runProgram(build(false), setup.tid);
    const Cycle dep = runProgram(build(true), setup.tid);
    return dep - indep + 1; // +1: the consumer's own issue cycle
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts =
        cyclops::bench::parseOptions(argc, argv, cyclops::bench::kNoRows);
    cyclops::bench::banner(
        opts, "Table 2: simulation parameters (measured)",
        "instruction execution/latency cycles and hardware parameters");

    Table instr({"Instruction type", "Paper exec", "Paper lat",
                 "Measured (dependent-use distance)"});
    ChipConfig cfg;

    instr.addRow({"Branches", "2", "0",
                  Table::num(s64(measure([](ProgramBuilder &b) {
                      auto l = b.newLabel();
                      b.beq(0, 0, l);
                      b.bind(l);
                  }) - measure([](ProgramBuilder &) {})))});
    instr.addRow(
        {"Integer multiplication", "1", "5",
         Table::num(s64(latencyOf([](ProgramBuilder &b, bool dep) {
             b.li(4, 7);
             b.mul(6, 4, 4);
             b.addi(7, dep ? 6 : 0, 1);
         })) + 1)});
    instr.addRow({"Integer divide", "33", "0",
                  Table::num(s64(measure([](ProgramBuilder &b) {
                      b.li(4, 100);
                      b.divu(6, 4, 4);
                  }) - measure([](ProgramBuilder &b) {
                      b.li(4, 100);
                  })))});
    instr.addRow(
        {"FP add/mult/conv", "1", "5",
         Table::num(s64(latencyOf([](ProgramBuilder &b, bool dep) {
             b.faddd(8, 10, 12);
             if (dep)
                 b.faddd(14, 8, 8);
             else
                 b.addi(7, 0, 1);
         })) + 1)});
    instr.addRow({"FP divide (double)", "30", "0",
                  Table::num(s64(latencyOf(
                      [](ProgramBuilder &b, bool dep) {
                          b.fdivd(8, 10, 12);
                          if (dep)
                              b.faddd(14, 8, 8);
                          else
                              b.addi(7, 0, 1);
                      })) + 1)});
    instr.addRow({"FP square root (double)", "56", "0",
                  Table::num(s64(latencyOf(
                      [](ProgramBuilder &b, bool dep) {
                          b.emitR(Opcode::Fsqrtd, 8, 10, 0);
                          if (dep)
                              b.faddd(14, 8, 8);
                          else
                              b.addi(7, 0, 1);
                      })) + 1)});
    instr.addRow(
        {"FP multiply-and-add", "1", "9",
         Table::num(s64(latencyOf([](ProgramBuilder &b, bool dep) {
             b.fmadd(8, 10, 12);
             if (dep)
                 b.faddd(14, 8, 8);
             else
                 b.addi(7, 0, 1);
         })) + 1)});
    instr.addRow({"Memory op (local cache hit)", "1", "6",
                  Table::num(s64(memLatency({igExactly(0), true, 0})))});
    instr.addRow({"Memory op (local cache miss)", "1", "24",
                  Table::num(s64(memLatency({igExactly(0), false, 0})))});
    instr.addRow({"Memory op (remote cache hit)", "1", "17",
                  Table::num(s64(memLatency({igExactly(0), true, 4})))});
    instr.addRow({"Memory op (remote cache miss)", "1", "36",
                  Table::num(s64(memLatency({igExactly(0), false, 4})))});
    cyclops::bench::emit(opts, instr);

    Table hw({"Component", "# of units", "Params/unit"});
    hw.addRow({"Threads", Table::num(s64(cfg.numThreads)),
               "single issue, in-order, 500 MHz"});
    hw.addRow({"FPUs", Table::num(s64(cfg.numFpus())),
               "1 add, 1 multiply, 1 divide/square root"});
    hw.addRow({"D-cache", Table::num(s64(cfg.numCaches())),
               strprintf("%u KB, up to %u-way assoc., %u-byte lines",
                         cfg.dcacheBytes / 1024, cfg.dcacheAssoc,
                         cfg.dcacheLineBytes)});
    hw.addRow({"I-cache", Table::num(s64(cfg.numICaches())),
               strprintf("%u KB, %u-way assoc., %u-byte lines",
                         cfg.icacheBytes / 1024, cfg.icacheAssoc,
                         cfg.icacheLineBytes)});
    hw.addRow({"Memory", Table::num(s64(cfg.numBanks)),
               strprintf("%u KB", cfg.bankBytes / 1024)});
    cyclops::bench::emit(opts, hw);

    cyclops::bench::note(
        opts,
        strprintf("Peak embedded-memory bandwidth: %.1f GB/s "
                  "(paper: 42 GB/s); peak cache bandwidth: %.1f GB/s "
                  "(paper: 128 GB/s)",
                  cfg.peakMemBandwidth() / 1e9,
                  cfg.peakCacheBandwidth() / 1e9)
            .c_str());
    cyclops::bench::writeManifest(opts, "bench_table2_latencies");
    return 0;
}
