/**
 * @file
 * Host-side parallelism for independent simulation points.
 *
 * Every paper figure is a sweep of self-contained simulations (one
 * Chip per point), so the host can run them on N threads as long as
 * nothing mutable is shared between points. SimPool is a deliberately
 * simple pool: no work stealing, no futures — one shared atomic index
 * hands out points in order, and parallelSweep() collects results in
 * input order, so tables and CSV output are byte-identical to a
 * serial run regardless of the job count or scheduling.
 *
 * Determinism contract: the sweep function must depend only on its
 * input point (fresh Chip, no globals). The simulator honors this —
 * all chip state is owned by the Chip object; the only process-wide
 * mutable state is the log level (atomic, see common/log.cc).
 */

#ifndef CYCLOPS_COMMON_PARALLEL_H
#define CYCLOPS_COMMON_PARALLEL_H

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"

namespace cyclops
{

/** A fixed-width pool of host worker threads for simulation sweeps. */
class SimPool
{
  public:
    /**
     * Create a pool running work on @p jobs host threads total (the
     * calling thread participates; jobs-1 workers are spawned).
     * jobs <= 1 means fully serial: forEach() runs inline and no
     * threads are created.
     */
    explicit SimPool(u32 jobs = 1);
    ~SimPool();

    SimPool(const SimPool &) = delete;
    SimPool &operator=(const SimPool &) = delete;

    /** Host threads this pool runs work on (>= 1). */
    u32 jobs() const { return jobs_; }

    /**
     * Run fn(i) once for every i in [0, count), distributed over the
     * pool; blocks until all indices completed. Not reentrant.
     */
    void forEach(size_t count, const std::function<void(size_t)> &fn);

    /**
     * Turn a user-requested job count into an effective one: 0 means
     * "all hardware threads", and larger requests are clamped to the
     * hardware thread count. Sweep output is byte-identical at any job
     * count, so lanes beyond the hardware buy nothing.
     */
    static u32 resolveJobs(u32 requested);

  private:
    void workerMain();
    void runItems(const std::function<void(size_t)> &fn, size_t count);

    u32 jobs_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable wake_; ///< workers: a new task is posted
    std::condition_variable done_; ///< caller: all workers checked in
    const std::function<void(size_t)> *task_ = nullptr; // guarded by mu_
    size_t taskCount_ = 0;                              // guarded by mu_
    u64 generation_ = 0;                                // guarded by mu_
    u32 checkedIn_ = 0;                                 // guarded by mu_
    bool stop_ = false;                                 // guarded by mu_
    std::atomic<size_t> next_{0}; ///< index dispenser for the live task
};

/**
 * A spin-synchronized crew of host threads for fan-outs too frequent
 * for SimPool, such as one worker per chip at every fabric epoch.
 *
 * SimPool's mutex/condvar handshake costs microseconds per dispatch —
 * fine for whole-simulation sweep points, hopeless for a fan-out every
 * few simulated cycles. ShardCrew instead parks workers on a spinning
 * epoch counter: run() publishes work with one release-increment and
 * waits for a done-counter, so a round trip is a few hundred
 * nanoseconds when the crew is hot.
 *
 * The calling thread participates as worker 0; workers-1 host threads
 * are spawned. run() invokes fn(w) for every worker index w in
 * [0, workers) and returns after all complete. Memory ordering: writes
 * made by the caller before run() are visible to every worker, and
 * writes made by workers inside fn are visible to the caller after
 * run() returns (release/acquire on the epoch and done counters).
 *
 * Exceptions thrown inside fn are captured and rethrown from run() on
 * the calling thread (lowest worker index wins), after all workers
 * have finished the epoch.
 */
class ShardCrew
{
  public:
    /** Spawn a crew of @p workers total lanes (>= 1). */
    explicit ShardCrew(u32 workers);
    ~ShardCrew();

    ShardCrew(const ShardCrew &) = delete;
    ShardCrew &operator=(const ShardCrew &) = delete;

    u32 workers() const { return workers_; }

    /** Run fn(w) for every w in [0, workers); blocks until all done. */
    void run(const std::function<void(u32)> &fn);

  private:
    void workerMain(u32 w);
    void runEpoch(u32 w, const std::function<void(u32)> *fn);

    u32 workers_ = 1;
    u32 spinLimit_ = 4096; ///< 0 on oversubscribed hosts: yield at once
    std::vector<std::thread> threads_;
    const std::function<void(u32)> *fn_ = nullptr; ///< published by epoch_
    bool stop_ = false;                            ///< published by epoch_
    std::vector<std::exception_ptr> errors_;       ///< one slot per worker
    alignas(64) std::atomic<u64> epoch_{0};
    alignas(64) std::atomic<u32> done_{0};
};

/**
 * Run @p fn over every element of @p points on @p pool and return the
 * results in input order. The function may return any copyable value.
 */
template <typename Point, typename Fn>
auto
parallelSweep(SimPool &pool, const std::vector<Point> &points, Fn fn)
    -> std::vector<decltype(fn(points[0]))>
{
    using Result = decltype(fn(points[0]));
    std::vector<Result> results(points.size());
    pool.forEach(points.size(),
                 [&](size_t i) { results[i] = fn(points[i]); });
    return results;
}

/** One-shot sweep: build a pool of @p jobs threads just for this run. */
template <typename Point, typename Fn>
auto
parallelSweep(const std::vector<Point> &points, u32 jobs, Fn fn)
    -> std::vector<decltype(fn(points[0]))>
{
    SimPool pool(jobs);
    return parallelSweep(pool, points, fn);
}

} // namespace cyclops

#endif // CYCLOPS_COMMON_PARALLEL_H
