/**
 * @file
 * Epoch-sampled metrics: periodic snapshots of a StatGroup's scalar
 * statistics (counters + gauges) into an in-memory time series, and
 * machine-readable exporters (JSON / CSV) for end-of-run statistics.
 *
 * The sampler belongs to one Chip and is driven from the cycle engine:
 * Chip::run calls maybeSample(now) once per simulated cycle, which is a
 * single compare when no epoch boundary has been crossed. Sampling only
 * reads statistics, so enabling it cannot perturb simulated timing.
 */

#ifndef CYCLOPS_COMMON_METRICS_H
#define CYCLOPS_COMMON_METRICS_H

#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace cyclops
{

class EpochSampler
{
  public:
    /** Rows are capped so a pathological interval cannot exhaust RAM. */
    static constexpr u32 kMaxRows = 1u << 16;

    /**
     * Attach to @p stats and sample every @p intervalCycles. An
     * interval of zero disables the sampler. Column names are captured
     * here; statistics registered later are not sampled.
     */
    void configure(const StatGroup *stats, u32 intervalCycles);

    bool enabled() const { return interval_ != 0; }
    u32 interval() const { return interval_; }

    /** Sample boundary cycle the next row will be taken at. */
    Cycle nextSampleAt() const { return next_; }

    /**
     * Record one row per epoch boundary in (lastSampled, now]. A
     * fast-forwarding cycle engine may cross several boundaries at
     * once; each gets its own row so the time axis stays uniform.
     */
    void
    maybeSample(Cycle now)
    {
        while (interval_ && now >= next_) {
            record(next_);
            next_ += interval_;
        }
    }

    /**
     * Record one final row at @p now (end of run), if past the last.
     * The final row is flushed exactly once even when the run is
     * shorter than one epoch, ends exactly on an epoch boundary, the
     * row cap was hit mid-run, or finalize is called repeatedly (the
     * exporters call it once per output file).
     */
    void finalize(Cycle now);

    u32 rows() const { return static_cast<u32>(sampleCycles_.size()); }
    u64 droppedRows() const { return droppedRows_; }
    const std::vector<std::string> &names() const { return names_; }
    const std::vector<Cycle> &sampleCycles() const { return sampleCycles_; }

    /** Value of column @p col at row @p row. */
    u64
    value(u32 row, u32 col) const
    {
        return data_[size_t(row) * names_.size() + col];
    }

    /** Write the series as CSV: cycle,<name>,... header then rows. */
    void writeCsv(std::FILE *out) const;

  private:
    void record(Cycle at, bool force = false);

    const StatGroup *stats_ = nullptr;
    u32 interval_ = 0;
    Cycle next_ = 0;
    u64 droppedRows_ = 0;
    std::vector<std::string> names_;
    std::vector<Cycle> sampleCycles_;
    std::vector<u64> data_; ///< rows * names_.size(), row-major
};

/**
 * Write a full statistics snapshot as JSON: total cycles, every scalar
 * (counters + gauges), every histogram, and — when @p sampler is
 * non-null and enabled — the epoch time series.
 */
void writeStatsJson(std::FILE *out, const StatGroup &stats, Cycle cycles,
                    const EpochSampler *sampler);

/**
 * Write @p sampler's epoch series as one JSON object value (interval,
 * cycle axis, per-column arrays, droppedRows) — the "series" member of
 * writeStatsJson, reusable by other exporters (the fabric stats file).
 */
void writeSeriesJson(std::FILE *out, const EpochSampler &sampler);

} // namespace cyclops

#endif // CYCLOPS_COMMON_METRICS_H
