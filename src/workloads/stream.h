/**
 * @file
 * The STREAM benchmark (McCalpin) for Cyclops, generated as hand-
 * scheduled ISA code — the paper's Section 3.2 evaluation vehicle.
 *
 * Four vector kernels over double-precision vectors a, b, c:
 *   Copy  c = a          Scale b = s*c
 *   Add   c = a + b      Triad a = b + s*c
 *
 * All the paper's execution modes are supported:
 *  - single-threaded and N independent copies ("out-of-the-box", Fig 4)
 *  - one parallel STREAM with blocked or cyclic loop partitioning
 *    (cyclic combines threads in groups of eight so a group shares the
 *    eight-element cache lines; Fig 5a/b)
 *  - local-cache mode: the interest-group feature forces each thread's
 *    block into its local cache, with line-aligned blocks to avoid
 *    false sharing (Fig 5c)
 *  - 4-way hand-unrolled loops (Fig 5d)
 *  - sequential or balanced thread allocation (Section 3.2.2)
 *
 * Timing follows the paper's convention: bandwidth counts 16 bytes per
 * element for Copy/Scale and 24 for Add/Triad. The steady-state
 * iteration time is obtained by differencing a one-iteration and a
 * two-iteration run of the same deterministic simulation, so the
 * measured iteration runs against warm caches exactly like iterations
 * 2..10 of the real benchmark.
 */

#ifndef CYCLOPS_WORKLOADS_STREAM_H
#define CYCLOPS_WORKLOADS_STREAM_H

#include <array>
#include <string>

#include "arch/unit.h"
#include "common/config.h"
#include "isa/isa.h"
#include "kernel/kernel.h"

namespace cyclops::workloads
{

/** The four STREAM vector kernels. */
enum class StreamKernel : u8 { Copy, Scale, Add, Triad };

/** Loop partitioning of one parallel STREAM (paper section 3.2.2). */
enum class StreamPartition : u8 { Blocked, Cyclic };

const char *streamKernelName(StreamKernel kernel);

/** Bytes counted per element by the STREAM convention. */
constexpr u32
streamBytesPerElement(StreamKernel kernel)
{
    return (kernel == StreamKernel::Copy ||
            kernel == StreamKernel::Scale)
               ? 16
               : 24;
}

/** One STREAM experiment. */
struct StreamConfig
{
    StreamKernel kernel = StreamKernel::Copy;
    u32 threads = 1;
    u32 elementsPerThread = 1000; ///< rounded to a multiple of 8
    bool independent = false;     ///< Fig 4b: per-thread private vectors
    StreamPartition partition = StreamPartition::Blocked;
    bool localCaches = false;     ///< interest-group own-cache blocks
    u32 unroll = 1;               ///< 1 or 4 (hand-unrolling)
    u32 cyclicGroup = 8;          ///< threads per cyclic group
    kernel::AllocPolicy policy = kernel::AllocPolicy::Sequential;

    /**
     * Instrument the program with guest-side rdcounter snapshots: each
     * thread dumps the counter file before and after its kernel loop
     * into a shared buffer, and the host folds the snapshots into a
     * per-region counter table (StreamResult::counterTable).
     */
    bool counterTable = false;
};

/** Measured result of one STREAM experiment. */
struct StreamResult
{
    Cycle iterationCycles = 0;  ///< steady-state cycles per iteration
    u64 bytesPerIteration = 0;  ///< STREAM-counted bytes
    double totalGBs = 0;        ///< aggregate bandwidth, GB/s
    double perThreadMBs = 0;    ///< average per-thread bandwidth, MB/s
    bool verified = false;      ///< numerical result checked

    // Host-throughput accounting (perfbench/): totals over both
    // timed runs of the differencing scheme.
    u64 simCycles = 0;          ///< simulated chip cycles executed
    u64 instructions = 0;       ///< guest instructions executed

    /** Chip-wide cycle attribution of the long (4-iteration) run. */
    arch::CycleBreakdown attr;

    // Guest-visible counter-file region table (StreamConfig::
    // counterTable): counter sums over all threads, split at the
    // guest's own rdcounter snapshots around the kernel loop.
    std::array<u64, isa::kNumCounterSprs> setupCounters{};
    std::array<u64, isa::kNumCounterSprs> kernelCounters{};
    std::string counterTable; ///< formatted region table ("" when off)
};

/**
 * Run one STREAM experiment on a fresh chip.
 *
 * fatal()s if the requested size does not fit the 8 MB embedded
 * memory (the paper's maximum is ~252,000 elements).
 */
StreamResult runStream(const StreamConfig &config,
                       const ChipConfig &chipCfg = ChipConfig{});

} // namespace cyclops::workloads

#endif // CYCLOPS_WORKLOADS_STREAM_H
