#include "exec/ExecContext.h"

#include <atomic>
#include <cstdlib>
#include <thread>

#include "util/ThreadPool.h"
#include "util/Timer.h"

namespace bzk::exec {

namespace {

/** CLI override (setDefaultThreads); 0 = unset. */
std::atomic<size_t> g_default_threads{0};

/**
 * True while the current thread is inside a parallelFor share: nested
 * parallel regions run inline instead of re-entering the shared pool
 * (a worker waiting on its own pool would deadlock).
 */
thread_local bool tl_in_parallel_region = false;

size_t
envThreads()
{
    const char *env = std::getenv("BZK_THREADS");
    if (!env || !*env)
        return 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env || (end && *end != '\0'))
        return 0;
    return static_cast<size_t>(v);
}

/**
 * Process-wide pool cache, one pool per resolved thread count. Pools
 * live for the process so repeated ExecContext construction (one per
 * proving front-end run) costs a map lookup, not a thread spawn.
 */
std::shared_ptr<ThreadPool>
sharedPool(size_t threads)
{
    static std::mutex mutex;
    static std::map<size_t, std::shared_ptr<ThreadPool>> pools;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = pools.find(threads);
    if (it != pools.end())
        return it->second;
    auto pool = std::make_shared<ThreadPool>(threads);
    pools.emplace(threads, pool);
    return pool;
}

} // namespace

void
setDefaultThreads(size_t threads)
{
    g_default_threads.store(threads, std::memory_order_relaxed);
}

size_t
resolveThreads(size_t requested)
{
    if (requested > 0)
        return requested;
    size_t v = g_default_threads.load(std::memory_order_relaxed);
    if (v > 0)
        return v;
    v = envThreads();
    if (v > 0)
        return v;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ExecContext::ExecContext(ExecConfig cfg)
    : threads_(resolveThreads(cfg.threads))
{
    if (threads_ > 1)
        pool_ = sharedPool(threads_);
}

void
ExecContext::parallelFor(
    size_t n, const std::function<void(size_t, size_t)> &body) const
{
    parallelFor(n, kSerialCutoff, body);
}

void
ExecContext::parallelFor(
    size_t n, size_t serial_cutoff,
    const std::function<void(size_t, size_t)> &body) const
{
    if (n == 0)
        return;
    Timer wall;
    if (!pool_ || n < serial_cutoff || tl_in_parallel_region) {
        body(0, n);
        double ms = wall.milliseconds();
        account(ms, ms);
        return;
    }
    std::atomic<int64_t> busy_us{0};
    pool_->parallelFor(n, [&body, &busy_us](size_t begin, size_t end) {
        // Exception-safe flag scope: the share may throw through
        // ThreadPool's fence and the thread must not stay marked.
        struct FlagScope
        {
            FlagScope() { tl_in_parallel_region = true; }
            ~FlagScope() { tl_in_parallel_region = false; }
        } scope;
        Timer share;
        body(begin, end);
        busy_us.fetch_add(static_cast<int64_t>(share.milliseconds() * 1e3),
                          std::memory_order_relaxed);
    });
    account(wall.milliseconds(),
            static_cast<double>(busy_us.load(std::memory_order_relaxed)) /
                1e3);
}

void
ExecContext::setRegion(const char *name) const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    region_ = name;
}

void
ExecContext::account(double wall_ms, double busy_ms) const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    RegionStats &s = stats_[region_];
    s.wall_ms += wall_ms;
    s.busy_ms += busy_ms;
    ++s.calls;
}

RegionStats
ExecContext::stats(const std::string &region) const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    auto it = stats_.find(region);
    return it == stats_.end() ? RegionStats{} : it->second;
}

RegionStats
ExecContext::totals() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    RegionStats total;
    for (const auto &kv : stats_) {
        total.wall_ms += kv.second.wall_ms;
        total.busy_ms += kv.second.busy_ms;
        total.calls += kv.second.calls;
    }
    return total;
}

double
ExecContext::parallelEfficiency() const
{
    RegionStats total = totals();
    if (total.wall_ms <= 0.0)
        return 1.0;
    double eff =
        total.busy_ms / (total.wall_ms * static_cast<double>(threads_));
    return eff > 1.0 ? 1.0 : eff;
}

void
ExecContext::resetStats() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.clear();
}

} // namespace bzk::exec
