#ifndef BZK_UTIL_THREADPOOL_H_
#define BZK_UTIL_THREADPOOL_H_

/**
 * @file
 * A fork-join thread pool for the host prover, mirroring the multi-core
 * CPU baselines the paper measures (Orion, Arkworks, Libsnark) and its
 * static split of a device's lanes between modules (Sec. 4): there is
 * no job queue. A pool for T threads starts T - 1 workers; each
 * parallelFor cuts its range into T contiguous shares, runs share 0 on
 * the caller and share i on worker i, and returns when all are done.
 * Share i therefore runs on the same thread in every call, so a body
 * may keep per-thread scratch (thread_local) across calls.
 */

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bzk {

/** T threads, the caller's included, that split each range T ways. */
class ThreadPool
{
  public:
    /**
     * A pool for @p num_threads threads: starts num_threads - 1
     * workers; 0 means hardware concurrency.
     */
    explicit ThreadPool(size_t num_threads = 0);

    /** Stops and joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Split [0, n) into size() contiguous shares, share i starting at
     * i * floor(n / T) + min(i, n mod T), and run @p body(begin, end)
     * on every non-empty one: share 0 on the calling thread, share i
     * on worker i. Blocks until all shares finish. If any share
     * throws, the first exception (in completion order) is rethrown on
     * the caller after every share has finished; the pool stays
     * usable. Concurrent callers take turns. A body must not call
     * parallelFor on its own pool.
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t, size_t)> &body);

    /** Threads a parallelFor runs on, the caller's included. */
    size_t size() const { return workers_.size() + 1; }

  private:
    void workerLoop(size_t share);
    /** Run @p share of the current range; record its exception. */
    void runShare(size_t share);

    /** Held by the caller for a whole parallelFor. */
    std::mutex turn_;
    /** Guards the members below, up to stopping_. */
    std::mutex mutex_;
    std::condition_variable start_cv_;
    std::condition_variable done_cv_;
    const std::function<void(size_t, size_t)> *body_ = nullptr;
    size_t n_ = 0;
    /** Bumped by each parallelFor; a worker runs once per value. */
    uint64_t generation_ = 0;
    /** Workers still running the current range. */
    size_t pending_ = 0;
    std::exception_ptr error_;
    bool stopping_ = false;
    /** Fixed after construction; last, as they use every member above. */
    std::vector<std::thread> workers_;
};

} // namespace bzk

#endif // BZK_UTIL_THREADPOOL_H_
