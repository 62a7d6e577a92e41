#include "common/parallel.h"

#include <algorithm>

namespace cyclops
{

SimPool::SimPool(u32 jobs) : jobs_(std::max(1u, jobs))
{
    workers_.reserve(jobs_ - 1);
    for (u32 i = 0; i + 1 < jobs_; ++i)
        workers_.emplace_back([this] { workerMain(); });
}

SimPool::~SimPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

u32
SimPool::resolveJobs(u32 requested)
{
    const unsigned hw = std::thread::hardware_concurrency();
    const u32 cap = hw ? u32(hw) : 1u;
    return requested == 0 ? cap : std::min(requested, cap);
}

/** Drain the shared index dispenser. */
void
SimPool::runItems(const std::function<void(size_t)> &fn, size_t count)
{
    size_t i;
    while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < count)
        fn(i);
}

void
SimPool::workerMain()
{
    u64 seenGeneration = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        wake_.wait(lock, [&] {
            return stop_ || (task_ && generation_ != seenGeneration);
        });
        if (stop_)
            return;
        seenGeneration = generation_;
        const std::function<void(size_t)> *fn = task_;
        const size_t count = taskCount_;
        lock.unlock();

        runItems(*fn, count);

        lock.lock();
        // Check in: forEach() returns only once every worker has passed
        // the point of taking more work, so `fn` may safely go out of
        // scope in the caller.
        if (++checkedIn_ == workers_.size())
            done_.notify_one();
    }
}

namespace
{

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#endif
}

} // namespace

ShardCrew::ShardCrew(u32 workers) : workers_(std::max(1u, workers))
{
    // Spinning only pays when every crew member can hold a core; on an
    // oversubscribed host (more workers than hardware threads) a
    // spinning partner steals the core its peer needs, so yield at
    // once and let the scheduler rotate the crew.
    const unsigned hw = std::thread::hardware_concurrency();
    spinLimit_ = (hw != 0 && workers_ > hw) ? 0 : 4096;
    errors_.resize(workers_);
    threads_.reserve(workers_ - 1);
    for (u32 w = 1; w < workers_; ++w)
        threads_.emplace_back([this, w] { workerMain(w); });
}

ShardCrew::~ShardCrew()
{
    stop_ = true;
    epoch_.fetch_add(1, std::memory_order_release);
    for (std::thread &t : threads_)
        t.join();
}

void
ShardCrew::runEpoch(u32 w, const std::function<void(u32)> *fn)
{
    try {
        (*fn)(w);
    } catch (...) {
        errors_[w] = std::current_exception();
    }
}

void
ShardCrew::workerMain(u32 w)
{
    u64 seen = 0;
    for (;;) {
        // Spin on the epoch; fall back to yield after a while so an
        // idle crew does not monopolize host cores.
        u32 spins = 0;
        while (epoch_.load(std::memory_order_acquire) == seen) {
            if (++spins < spinLimit_)
                cpuRelax();
            else
                std::this_thread::yield();
        }
        ++seen;
        if (stop_)
            return;
        runEpoch(w, fn_);
        done_.fetch_add(1, std::memory_order_release);
    }
}

void
ShardCrew::run(const std::function<void(u32)> &fn)
{
    if (threads_.empty()) {
        fn(0);
        return;
    }
    fn_ = &fn;
    done_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);

    runEpoch(0, &fn);

    const u32 others = u32(threads_.size());
    u32 spins = 0;
    while (done_.load(std::memory_order_acquire) != others) {
        if (++spins < spinLimit_)
            cpuRelax();
        else
            std::this_thread::yield();
    }
    fn_ = nullptr;
    for (std::exception_ptr &e : errors_) {
        if (e) {
            std::exception_ptr rethrow = e;
            for (std::exception_ptr &clear : errors_)
                clear = nullptr;
            std::rethrow_exception(rethrow);
        }
    }
}

void
SimPool::forEach(size_t count, const std::function<void(size_t)> &fn)
{
    if (count == 0)
        return;
    if (workers_.empty()) {
        next_.store(0, std::memory_order_relaxed);
        runItems(fn, count);
        return;
    }

    std::unique_lock<std::mutex> lock(mu_);
    task_ = &fn;
    taskCount_ = count;
    checkedIn_ = 0;
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
    lock.unlock();
    wake_.notify_all();

    // The calling thread is one of the pool's `jobs` lanes.
    runItems(fn, count);

    lock.lock();
    done_.wait(lock, [&] { return checkedIn_ == workers_.size(); });
    task_ = nullptr;
}

} // namespace cyclops
