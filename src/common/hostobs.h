/**
 * @file
 * Host-side observability: instrumentation of the simulator itself.
 *
 * The guest-facing observability stack (attribution, tracer, sampler,
 * profiler) answers "what did the simulated chip do"; this subsystem
 * answers "what did the simulator do" — how much host wall-clock time
 * Chip::run took, at what simulated-cycle rate, and how much memory
 * the process peaked at.
 *
 * Design rules, mirrored from ObsConfig:
 *  - default off; enabling it must never change simulated results
 *    (host counters live in their own StatGroup, host trace events on
 *    their own Chrome-trace process, so guest output stays
 *    byte-identical either way);
 *  - cheap when on: wall-clock reads happen once per run() call and
 *    once per ~1 K-cycle service window, never per tick.
 *
 * Also home to the versioned per-run manifest (RunManifest): one small
 * JSON per run with config hash, seed, git describe, host info and
 * headline counters, so one run's outputs can be identified later
 * without scraping logs.
 */

#ifndef CYCLOPS_COMMON_HOSTOBS_H
#define CYCLOPS_COMMON_HOSTOBS_H

#include <string>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"

namespace cyclops
{

struct ChipConfig;

/** Monotonic host clock, nanoseconds (vDSO-backed; ~20 ns per read). */
u64 hostNowNs();

/** Peak resident set size of this process in KiB (0 if unknown). */
u64 hostPeakRssKb();

/** Current resident set size of this process in KiB (0 if unknown). */
u64 hostCurrentRssKb();

/**
 * Copyable value snapshot of one chip's host telemetry. add() merges
 * snapshots so a workload made of several Chip::run calls reports one
 * aggregate.
 */
struct HostObsSnapshot
{
    bool enabled = false;
    u64 runWallNanos = 0; ///< wall time inside Chip::run
    u64 peakRssKb = 0;

    /** Merge another snapshot: wall times add, peak RSS takes the max. */
    void add(const HostObsSnapshot &o);
};

/** Per-chip host telemetry collector, owned by Chip. */
class HostObs
{
  public:
    /** Host trace-event buffer cap (events beyond this are dropped). */
    static constexpr size_t kMaxEvents = size_t(1) << 16;

    /**
     * Enable collection. @p traceHost additionally buffers one host
     * span per service window for Chrome-trace export.
     */
    void configure(bool traceHost);

    void addRunWallNanos(u64 ns) { runWallNanos_ += ns; }

    /** Host statistics registry ("host."-prefixed gauges). */
    const StatGroup &stats() const { return stats_; }

    HostObsSnapshot snapshot() const;

    /**
     * Close the current service window at chip cycle @p now and emit
     * it as a host trace span whose argument is the simulated cycles
     * it covered. Called from the cycle engine's low-frequency service
     * point; wall-clock only, so it cannot perturb simulated timing.
     */
    void serviceFlush(Cycle now);

    /**
     * Flush the final partial window (ending at chip cycle @p now) and
     * hand the buffered host events to the tracer exporter. Returns
     * nullptr unless tracing.
     */
    const HostTraceExport *traceExport(Cycle now);

  private:
    /** Host ns since configure(); the host trace time base. */
    u64 sinceConfigureNs() const { return hostNowNs() - baseNs_; }

    void emitWindow(Cycle now);

    bool enabled_ = false;
    bool traceHost_ = false;
    u64 baseNs_ = 0;
    u64 runWallNanos_ = 0;

    StatGroup stats_;

    // Host trace state: where the open service window started, in host
    // ns and in chip cycles.
    HostTraceExport export_;
    u64 windowStartNs_ = 0;
    Cycle windowStartCycle_ = 0;
};

/** RAII wall-clock scope charging its lifetime to HostObs::runWall. */
class HostRunTimer
{
  public:
    explicit HostRunTimer(HostObs *obs)
        : obs_(obs), t0_(obs ? hostNowNs() : 0)
    {
    }
    ~HostRunTimer()
    {
        if (obs_)
            obs_->addRunWallNanos(hostNowNs() - t0_);
    }
    HostRunTimer(const HostRunTimer &) = delete;
    HostRunTimer &operator=(const HostRunTimer &) = delete;

  private:
    HostObs *obs_;
    u64 t0_;
};

/**
 * One run's identity and headline numbers, serialized by
 * writeRunManifest as "cyclops-manifest-v1" JSON. Every field that
 * affects simulated results is captured by config->hash(); host facts
 * ride along as explicit fields because they affect wall-clock, not
 * results.
 */
struct RunManifest
{
    std::string tool;     ///< producing binary ("cyclops-run", bench name)
    std::string workload; ///< program path or bench description
    u64 seed = 0;
    const ChipConfig *config = nullptr; ///< may be null (config-less tools)
    u64 simCycles = 0;
    u64 instructions = 0;
    double wallSeconds = 0.0;
    std::string exitReason; ///< "" when not applicable
};

/** Write @p m as JSON to @p path; fatal() on I/O error. */
void writeRunManifest(const std::string &path, const RunManifest &m);

/** Compile-time git describe string baked in by the build. */
const char *gitDescribe();

} // namespace cyclops

#endif // CYCLOPS_COMMON_HOSTOBS_H
