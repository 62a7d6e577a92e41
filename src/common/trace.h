/**
 * @file
 * Ring-buffer event tracer with Chrome trace-event JSON export.
 *
 * One Tracer instance belongs to one Chip, so concurrent simulations
 * (parallelSweep) never share tracer state. Events are recorded into a
 * preallocated ring of fixed-size PODs: recording performs no
 * allocation, and when a category is disabled the record call is a
 * single mask test. Event names must be string literals (the tracer
 * stores the pointer, not a copy).
 *
 * Export follows the Chrome trace-event format ("traceEvents" array of
 * phase "X"/"i"/"M" objects) so the output loads directly in Perfetto
 * or chrome://tracing. One simulated cycle is mapped to one
 * microsecond; thread-unit ids become per-process thread tracks.
 */

#ifndef CYCLOPS_COMMON_TRACE_H
#define CYCLOPS_COMMON_TRACE_H

#include <cstdio>
#include <string>
#include <vector>

#include "common/types.h"

namespace cyclops
{

/** Runtime-toggled event categories, one bit each. */
enum class TraceCat : u8 {
    Mem = 0,     ///< memory-system accesses (loads/stores/atomics)
    Cache = 1,   ///< cache misses and refills
    Barrier = 2, ///< barrier entry/release
    Kernel = 3,  ///< traps and kernel services
    Sched = 4,   ///< thread activation/halt
    Net = 5,     ///< fabric links: packet slices, flows, occupancy
};

inline constexpr u32 kNumTraceCats = 6;
extern const char *const kTraceCatNames[kNumTraceCats];

/** Bit for @p cat in a category mask. */
constexpr u8
traceBit(TraceCat cat)
{
    return static_cast<u8>(1u << static_cast<u8>(cat));
}

/** All categories enabled. */
inline constexpr u8 kTraceAll = (1u << kNumTraceCats) - 1;

/**
 * Parse a comma-separated category list ("mem,barrier", "all", "none",
 * "") into @p mask. "" on success; on an unknown category name, why
 * (and @p mask is left alone).
 */
std::string parseTraceCats(const std::string &spec, u8 *mask);

class Tracer
{
  public:
    /** One recorded event; fixed-size, name must outlive the tracer. */
    struct Event {
        Cycle start;      ///< cycle the event begins
        Cycle dur;        ///< duration in cycles (0 for instants)
        const char *name; ///< static string; never freed
        u64 arg;          ///< one free-form argument ("arg" in JSON)
        u32 tid;          ///< thread-unit track
        u8 cat;           ///< TraceCat
        u8 phase;         ///< 'X' complete, 'i' instant, 'C' counter,
                          ///< 's'/'f' flow start/finish (arg = flow id)
    };

    /**
     * Set the enabled-category mask and ring capacity. Buffer space is
     * allocated here (once); a zero mask keeps the tracer disabled and
     * allocates nothing.
     */
    void configure(u8 mask, u32 capacity);

    /** True if @p cat is enabled (single load+test on the hot path). */
    bool on(TraceCat cat) const { return mask_ & traceBit(cat); }

    /** True if any category is enabled. */
    bool enabled() const { return mask_ != 0; }

    /** Record a complete event spanning [start, start+dur). */
    void
    complete(TraceCat cat, u32 tid, const char *name, Cycle start,
             Cycle dur, u64 arg = 0)
    {
        if (!on(cat))
            return;
        record({start, dur, name, arg, tid, static_cast<u8>(cat), 'X'});
    }

    /** Record an instantaneous event at @p at. */
    void
    instant(TraceCat cat, u32 tid, const char *name, Cycle at, u64 arg = 0)
    {
        if (!on(cat))
            return;
        record({at, 0, name, arg, tid, static_cast<u8>(cat), 'i'});
    }

    /**
     * Record a counter sample: @p name becomes a Perfetto counter
     * track (one track per distinct name within a process), stepping
     * to @p value at cycle @p at.
     */
    void
    counter(TraceCat cat, u32 tid, const char *name, Cycle at, u64 value)
    {
        if (!on(cat))
            return;
        record({at, 0, name, value, tid, static_cast<u8>(cat), 'C'});
    }

    /**
     * Record a flow start at @p at: Perfetto draws an arrow from the
     * slice enclosing this event to the matching flowEnd (same name,
     * category and @p id).
     */
    void
    flowBegin(TraceCat cat, u32 tid, const char *name, Cycle at, u64 id)
    {
        if (!on(cat))
            return;
        record({at, 0, name, id, tid, static_cast<u8>(cat), 's'});
    }

    /** Record the matching end of a flow started with flowBegin. */
    void
    flowEnd(TraceCat cat, u32 tid, const char *name, Cycle at, u64 id)
    {
        if (!on(cat))
            return;
        record({at, 0, name, id, tid, static_cast<u8>(cat), 'f'});
    }

    /** Number of events currently retained (<= capacity). */
    size_t size() const { return filled_ ? ring_.size() : next_; }

    /** Events that overwrote older ones once the ring filled. */
    u64 dropped() const { return dropped_; }

    /**
     * Retained events in chronological order (by start cycle, then tid,
     * then recording order). Not a hot-path call.
     */
    std::vector<Event> sorted() const;

    /** Write the retained events as Chrome trace-event JSON. */
    void writeChromeJson(std::FILE *out, u32 numTracks) const;

    /** Convenience: writeChromeJson to @p path; fatal() on I/O error. */
    void writeChromeJson(const std::string &path, u32 numTracks) const;

    /**
     * Append the retained events as one Chrome-trace process @p pid
     * named @p processName: process_name/thread_name metadata plus the
     * sorted events, each record prefixed with ",\n" (the first omits
     * the comma when @p leadingComma is false). Emits no outer JSON
     * wrapper. Shared by writeChromeJson and the multi-chip merged
     * export (arch::System), which writes every chip's tracer into a
     * single file on its own pid. Thread tracks are named "tu<N>"
     * unless @p trackNames supplies explicit names (the fabric process
     * uses per-link names).
     */
    void writeChromeEvents(std::FILE *out, u32 pid,
                           const char *processName, u32 numTracks,
                           bool leadingComma,
                           const std::vector<std::string> *trackNames =
                               nullptr) const;

  private:
    void
    record(const Event &ev)
    {
        if (ring_.empty())
            return;
        if (filled_)
            ++dropped_;
        ring_[next_] = ev;
        if (++next_ == ring_.size()) {
            next_ = 0;
            filled_ = true;
        }
    }

    std::vector<Event> ring_;
    size_t next_ = 0;
    bool filled_ = false;
    u64 dropped_ = 0;
    u8 mask_ = 0;
};

} // namespace cyclops

#endif // CYCLOPS_COMMON_TRACE_H
