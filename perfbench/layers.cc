/**
 * @file
 * Per-layer cost table of the repository benchmark: host ns per call of
 * one public function of each simulator layer, measured in isolation
 * with google-benchmark. perfbench/run.py multiplies these figures by
 * the operation counts a traced workload run exports to predict where
 * the run's host time goes.
 *
 *   perfbench_layers --spans=<path> [google-benchmark flags]
 *
 * Every benchmark reports the counter "ops": the operations one
 * iteration performs, so ns/op = real_time / ops. Benchmarks that need a
 * fresh machine per iteration time only the measured call (manual
 * time). Each call of a benchmark function (one timed batch) is
 * appended to <path> as a JSON line with steady_clock ns bounds, for
 * the benchmark's Chrome trace.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/chip.h"
#include "arch/interest_group.h"
#include "arch/system.h"
#include "arch/thread_unit.h"
#include "common/stats.h"
#include "common/trace.h"
#include "exec/engine.h"
#include "isa/builder.h"
#include "net/fabric.h"
#include "workloads/multichip.h"

using namespace cyclops;
using arch::igAddr;
using arch::kIgDefault;

namespace
{

u64
nowNs()
{
    return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count());
}

struct Span
{
    std::string name;
    u64 t0 = 0;
    u64 t1 = 0;
    u64 iterations = 0;
};

std::vector<Span> gSpans;

/** Records one call of a benchmark function as a timed batch. */
class BatchSpan
{
  public:
    BatchSpan(const std::string &name, const benchmark::State &state)
        : name_(name), state_(state), t0_(nowNs())
    {}
    ~BatchSpan()
    {
        gSpans.push_back({name_, t0_, nowNs(), u64(state_.iterations())});
    }
    BatchSpan(const BatchSpan &) = delete;
    BatchSpan &operator=(const BatchSpan &) = delete;

  private:
    const std::string &name_;
    const benchmark::State &state_;
    u64 t0_;
};

double
secondsBetween(u64 t0, u64 t1)
{
    return double(t1 - t0) * 1e-9;
}

// --- arch.thread_unit: Chip::run on one TU looping one class ----------

enum class InstrClass { Alu, LoadHit, Fp };

constexpr u32 kLoopIters = 4096;
constexpr u32 kUnroll = 16;

/** kLoopIters iterations of kUnroll instructions of @p cls. */
isa::Program
loopProgram(InstrClass cls)
{
    isa::ProgramBuilder b;
    const u32 data = b.allocData(64, 64);
    b.pokeDouble(data, 1.5);
    b.li(20, igAddr(kIgDefault, data));
    b.ld(10, 0, 20);
    b.ld(12, 0, 20);
    b.li(30, kLoopIters);
    const auto loop = b.newLabel();
    b.bind(loop);
    for (u32 k = 0; k < kUnroll; ++k) {
        const u8 rd = u8(40 + 2 * (k % 8));
        switch (cls) {
          case InstrClass::Alu:
            b.add(u8(4 + k % 8), 2, 3);
            break;
          case InstrClass::LoadHit:
            b.ld(rd, 0, 20);
            break;
          case InstrClass::Fp:
            b.faddd(rd, 10, 12);
            break;
        }
    }
    b.addi(30, 30, -1);
    b.bne(30, 0, loop);
    b.halt();
    return b.finish();
}

void
threadUnitLoop(benchmark::State &state, const std::string &name,
               InstrClass cls)
{
    BatchSpan span(name, state);
    const isa::Program program = loopProgram(cls);
    u64 ops = 0;
    for (auto _ : state) {
        arch::Chip chip;
        chip.loadProgram(program);
        chip.setUnit(0, std::make_unique<arch::ThreadUnit>(0, chip,
                                                           program.entry));
        chip.activate(0);
        const u64 t0 = nowNs();
        const arch::RunExit exit = chip.run();
        state.SetIterationTime(secondsBetween(t0, nowNs()));
        if (exit != arch::RunExit::AllHalted)
            state.SkipWithError("loop did not halt");
        ops = chip.totalInstructions();
    }
    state.counters["ops"] = double(ops);
}

// --- exec.guest: GuestCtx ops in a GuestEngine ----------------------

constexpr u32 kGuestOps = 65536;
constexpr u32 kBatch = 8;

exec::GuestTask
aluLoop(exec::GuestCtx &ctx, u32 n, u32 count)
{
    for (u32 i = 0; i < n; ++i)
        co_await ctx.alu(count);
}

exec::GuestTask
loadLoop(exec::GuestCtx &ctx, Addr ea, u32 n)
{
    for (u32 i = 0; i < n; ++i)
        co_await ctx.load(ea);
}

exec::GuestTask
batchLoop(exec::GuestCtx &ctx, u32 n)
{
    std::array<exec::MicroOp, kBatch> ops;
    for (u32 i = 0; i < n; i += kBatch) {
        ops.fill(exec::MicroOp::alu(1, true));
        co_await ctx.batch(ops);
    }
}

enum class GuestKind { Alu, Load, Batch };

void
guestLoop(benchmark::State &state, const std::string &name,
          GuestKind kind)
{
    BatchSpan span(name, state);
    u64 ops = 0;
    for (auto _ : state) {
        arch::Chip chip;
        exec::GuestEngine engine(chip);
        const Addr ea = igAddr(kIgDefault, engine.heap().alloc(64, 64));
        engine.spawn(1, [&](exec::GuestCtx &ctx) {
            switch (kind) {
              case GuestKind::Alu:
                return aluLoop(ctx, kGuestOps, 1);
              case GuestKind::Load:
                return loadLoop(ctx, ea, kGuestOps);
              case GuestKind::Batch:
                break;
            }
            return batchLoop(ctx, kGuestOps);
        });
        const u64 t0 = nowNs();
        const arch::RunExit exit = engine.run();
        state.SetIterationTime(secondsBetween(t0, nowNs()));
        if (exit != arch::RunExit::AllHalted)
            state.SkipWithError("guest did not halt");
        ops = chip.totalInstructions();
    }
    state.counters["ops"] = double(ops);
}

// --- arch.memsys / arch.membank / arch.icache / arch.fpu -------------

void
memAccessHit(benchmark::State &state, const std::string &name)
{
    BatchSpan span(name, state);
    arch::Chip chip;
    const Addr ea = igAddr(kIgDefault, 0x100000);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            chip.memsys().access(now, 0, ea, 8, arch::MemKind::Load));
        now += 4;
    }
    state.counters["ops"] = 1;
}

void
memAccessMiss(benchmark::State &state, const std::string &name)
{
    BatchSpan span(name, state);
    arch::Chip chip;
    // 6 MB of distinct lines: 12x the 512 KB of aggregate D-cache, so
    // every access misses; 64 cycles apart so no bank queue builds.
    constexpr u32 kBase = 0x100000;
    constexpr u32 kLines = (6u << 20) / 64;
    u32 line = 0;
    Cycle now = 0;
    for (auto _ : state) {
        const Addr ea = igAddr(kIgDefault, kBase + line * 64);
        benchmark::DoNotOptimize(
            chip.memsys().access(now, 0, ea, 8, arch::MemKind::Load));
        line = line + 1 == kLines ? 0 : line + 1;
        now += 64;
    }
    state.counters["ops"] = 1;
}

void
bankReserve(benchmark::State &state, const std::string &name)
{
    BatchSpan span(name, state);
    arch::Chip chip;
    arch::MemBank &bank = chip.memsys().bank(0);
    Cycle now = 0;
    PhysAddr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bank.reserve(now, 2, addr));
        now += 16;
        addr = (addr + 64) & 0x7FFFF;
    }
    state.counters["ops"] = 1;
}

void
icacheRefill(benchmark::State &state, const std::string &name)
{
    BatchSpan span(name, state);
    arch::Chip chip;
    arch::ICache &ic = chip.icacheOf(0);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ic.refill(now, 0x1000, chip.memsys(), 0));
        now += 8;
    }
    state.counters["ops"] = 1;
}

void
fpuDispatch(benchmark::State &state, const std::string &name)
{
    BatchSpan span(name, state);
    arch::Chip chip;
    arch::Fpu &fpu = chip.fpuOf(0);
    Cycle now = 0;
    Cycle resultAt = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fpu.dispatch(now, arch::FpuOp::Add, &resultAt));
        benchmark::DoNotOptimize(resultAt);
        ++now;
    }
    state.counters["ops"] = 1;
}

// --- arch.chip: Chip::run across a sleeping chip ---------------------

void
chipIdle(benchmark::State &state, const std::string &name)
{
    BatchSpan span(name, state);
    constexpr Cycle kSlice = 5; // the default fabric epoch
    constexpr u32 kSlices = 20000;
    u64 cycles = 0;
    for (auto _ : state) {
        arch::Chip chip;
        exec::GuestEngine engine(chip);
        // One unit that wakes every 1000 cycles: the chip sleeps.
        engine.spawn(1, [](exec::GuestCtx &ctx) {
            return aluLoop(ctx, kGuestOps, 1000);
        });
        const Cycle start = chip.now();
        const u64 t0 = nowNs();
        for (u32 i = 0; i < kSlices; ++i)
            chip.run(kSlice);
        state.SetIterationTime(secondsBetween(t0, nowNs()));
        cycles = chip.now() - start;
    }
    state.counters["ops"] = double(cycles);
}

// --- arch.system: per-epoch cost of the lockstep ----------------------

/**
 * Spawn guest(ctx, chip) on one unit of every chip of @p sys and time
 * System::run as the iteration's manual time.
 */
void
timeSystemRun(
    benchmark::State &state, arch::System &sys,
    const std::function<exec::GuestTask(exec::GuestCtx &, u32)> &guest)
{
    std::vector<std::unique_ptr<exec::GuestEngine>> engines;
    for (u32 c = 0; c < sys.numChips(); ++c) {
        engines.push_back(std::make_unique<exec::GuestEngine>(sys.chip(c)));
        engines.back()->spawn(1, [&guest, c](exec::GuestCtx &ctx) {
            return guest(ctx, c);
        });
    }
    const u64 t0 = nowNs();
    const arch::RunExit exit = sys.run();
    state.SetIterationTime(secondsBetween(t0, nowNs()));
    if (exit != arch::RunExit::AllHalted)
        state.SkipWithError("system did not halt");
}

struct Shape
{
    u32 x, y, z;
};

/** One ALU-only guest per chip; run.py differences two epoch lengths. */
void
systemEpochs(benchmark::State &state, const std::string &name, Shape shape,
             Cycle epochCycles)
{
    BatchSpan span(name, state);
    constexpr u32 kOps = 20000;
    double epochs = 0;
    for (auto _ : state) {
        workloads::MultiChipConfig mc;
        mc.dimX = shape.x;
        mc.dimY = shape.y;
        mc.dimZ = shape.z;
        arch::SystemConfig sc = mc.systemConfig();
        sc.fabric.epochCycles = epochCycles;
        arch::System sys(sc);
        timeSystemRun(state, sys, [](exec::GuestCtx &ctx, u32) {
            return aluLoop(ctx, kOps, 1);
        });
        epochs = double(sys.now()) / double(sc.fabric.epoch());
    }
    state.counters["ops"] = 1;
    state.counters["epochs"] = epochs;
}

exec::GuestTask
storeLoop(exec::GuestCtx &ctx, u32 dst, u32 n)
{
    for (u32 i = 0; i < n; ++i)
        co_await ctx.store(arch::remoteEa(kIgDefault, dst, (i % 512) * 8),
                           i);
}

/** Posted remote stores to the +x neighbor, one guest per 2x2x1 chip. */
void
systemRemoteStore(benchmark::State &state, const std::string &name)
{
    BatchSpan span(name, state);
    constexpr u32 kStores = 20000;
    double stores = 0;
    double epochs = 0;
    for (auto _ : state) {
        const arch::SystemConfig sc =
            workloads::MultiChipConfig{}.systemConfig();
        arch::System sys(sc);
        timeSystemRun(state, sys, [](exec::GuestCtx &ctx, u32 chip) {
            return storeLoop(ctx, chip ^ 1, kStores); // +x on 2x2x1
        });
        stores = double(sys.numChips()) * kStores;
        epochs = double(sys.now()) / double(sc.fabric.epoch());
    }
    state.counters["ops"] = stores;
    state.counters["epochs"] = epochs;
}

// --- net.fabric: Fabric::inject per hop and Fabric::advance -----------

constexpr u32 kMessages = 256;

net::FabricConfig
torus4()
{
    net::FabricConfig fc;
    fc.net.dimX = fc.net.dimY = fc.net.dimZ = 4;
    return fc;
}

/** A fixed pseudo-random list of distinct (src, dst) chip pairs. */
std::vector<std::pair<u32, u32>>
messagePairs(u32 chips)
{
    std::vector<std::pair<u32, u32>> pairs;
    u32 x = 12345;
    while (pairs.size() < kMessages) {
        x = x * 1103515245u + 12345u;
        const u32 src = (x >> 8) % chips;
        const u32 dst = (x >> 20) % chips;
        if (src != dst)
            pairs.emplace_back(src, dst);
    }
    return pairs;
}

void
fabricInject(benchmark::State &state, const std::string &name)
{
    BatchSpan span(name, state);
    net::Fabric fab(torus4());
    const auto pairs = messagePairs(fab.topology().config().numChips());
    u64 hops = 0;
    for (const auto &[src, dst] : pairs)
        hops += fab.topology().hops(src, dst);
    Cycle now = 0;
    for (auto _ : state) {
        const u64 t0 = nowNs();
        for (const auto &[src, dst] : pairs) {
            benchmark::DoNotOptimize(fab.inject(now, src, dst, 16));
            now += 4;
        }
        state.SetIterationTime(secondsBetween(t0, nowNs()));
        now += 100000; // let every flight land before retiring them
        fab.advance(now);
    }
    state.counters["ops"] = double(hops);
}

void
fabricAdvance(benchmark::State &state, const std::string &name)
{
    BatchSpan span(name, state);
    constexpr Cycle kEpoch = 5;
    net::Fabric fab(torus4());
    const auto pairs = messagePairs(fab.topology().config().numChips());
    Cycle now = 0;
    for (auto _ : state) {
        for (const auto &[src, dst] : pairs)
            fab.inject(now, src, dst, 16);
        const u64 t0 = nowNs();
        for (u32 i = 0; i < kMessages; ++i) {
            now += kEpoch;
            fab.advance(now);
        }
        state.SetIterationTime(secondsBetween(t0, nowNs()));
        now += 100000;
        fab.advance(now);
    }
    state.counters["ops"] = kMessages;
}

// --- common.obs: stats counter and tracer record ----------------------

void
counterAdd(benchmark::State &state, const std::string &name)
{
    BatchSpan span(name, state);
    Counter counter;
    for (auto _ : state) {
        ++counter;
        benchmark::DoNotOptimize(counter);
    }
    state.counters["ops"] = 1;
}

void
traceRecord(benchmark::State &state, const std::string &name)
{
    BatchSpan span(name, state);
    Tracer tracer;
    tracer.configure(kTraceAll, 4096);
    Cycle now = 0;
    for (auto _ : state) {
        tracer.complete(TraceCat::Mem, 0, "access", now++, 6, 0);
        benchmark::ClobberMemory();
    }
    state.counters["ops"] = 1;
}

using BenchFn = std::function<void(benchmark::State &, const std::string &)>;

/** Register @p fn under @p name; manual-time ones time only the call. */
void
add(const std::string &name, BenchFn fn, bool manualTime)
{
    auto *b = benchmark::RegisterBenchmark(
        name.c_str(), [name, fn](benchmark::State &state) {
            fn(state, name);
        });
    if (manualTime)
        b->UseManualTime();
}

void
registerAll()
{
    using std::placeholders::_1;
    using std::placeholders::_2;
    add("thread_unit.alu_ns",
        std::bind(threadUnitLoop, _1, _2, InstrClass::Alu), true);
    add("thread_unit.load_hit_ns",
        std::bind(threadUnitLoop, _1, _2, InstrClass::LoadHit), true);
    add("thread_unit.fp_ns",
        std::bind(threadUnitLoop, _1, _2, InstrClass::Fp), true);
    add("guest.alu_ns", std::bind(guestLoop, _1, _2, GuestKind::Alu), true);
    add("guest.load_ns", std::bind(guestLoop, _1, _2, GuestKind::Load),
        true);
    add("guest.batch_ns", std::bind(guestLoop, _1, _2, GuestKind::Batch),
        true);
    add("mem.access_hit_ns", memAccessHit, false);
    add("mem.access_miss_ns", memAccessMiss, false);
    add("bank.reserve_ns", bankReserve, false);
    add("icache.refill_ns", icacheRefill, false);
    add("fpu.dispatch_ns", fpuDispatch, false);
    add("chip.idle_cycle_ns", chipIdle, true);
    for (const auto &[tag, shape] :
         {std::pair{"2x2x1", Shape{2, 2, 1}}, std::pair{"4x4x4", Shape{4, 4, 4}}}) {
        add(std::string("system.epoch_default/") + tag,
            std::bind(systemEpochs, _1, _2, shape, 0), true);
        add(std::string("system.epoch_long/") + tag,
            std::bind(systemEpochs, _1, _2, shape, 1000), true);
    }
    add("system.remote_store", systemRemoteStore, true);
    add("fabric.inject_ns_per_hop", fabricInject, true);
    add("fabric.advance_ns", fabricAdvance, true);
    add("stats.counter_add_ns", counterAdd, false);
    add("trace.record_ns", traceRecord, false);
}

void
writeSpans(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write spans to '%s'\n", path.c_str());
        return;
    }
    for (const Span &s : gSpans)
        std::fprintf(f,
                     "{\"name\": \"%s\", \"t0\": %llu, \"t1\": %llu, "
                     "\"iterations\": %llu}\n",
                     s.name.c_str(), static_cast<unsigned long long>(s.t0),
                     static_cast<unsigned long long>(s.t1),
                     static_cast<unsigned long long>(s.iterations));
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    // Take --spans=<path> out before google-benchmark sees the flags.
    std::string spansPath;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], "--spans=", 8) == 0)
            spansPath = argv[i] + 8;
        else
            args.push_back(argv[i]);
    }
    int n = int(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 2;
    registerAll();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!spansPath.empty())
        writeSpans(spansPath);
    return 0;
}
