#ifndef BZK_UTIL_THREADPOOL_H_
#define BZK_UTIL_THREADPOOL_H_

/**
 * @file
 * A small work-stealing-free thread pool used by the CPU reference
 * implementations to exploit host cores, mirroring the multi-core CPU
 * baselines the paper measures (Orion, Arkworks, Libsnark).
 */

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bzk {

/** Fixed-size pool of worker threads executing queued jobs. */
class ThreadPool
{
  public:
    /**
     * Start @p num_threads workers; 0 means hardware concurrency.
     */
    explicit ThreadPool(size_t num_threads = 0);

    /** Drains the queue and joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job for asynchronous execution. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has completed. */
    void wait();

    /**
     * Split [0, n) into contiguous chunks and run @p body(begin, end) on the
     * pool, blocking until all chunks finish. The calling thread runs
     * queued chunks too until the queue is empty, then waits for the
     * chunks still on workers. If any chunk throws, the first exception
     * (in completion order) is rethrown on the calling thread after
     * every chunk has finished; the pool stays usable.
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t, size_t)> &body);

    /** Number of worker threads. */
    size_t size() const { return workers_.size(); }

  private:
    void workerLoop();
    /** Pop and run one queued job on this thread; false if none. */
    bool runQueuedJob();
    /** Retire one job and wake wait() when none are left. */
    void finishJob();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> jobs_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable idle_cv_;
    size_t in_flight_ = 0;
    bool stopping_ = false;
};

} // namespace bzk

#endif // BZK_UTIL_THREADPOOL_H_
