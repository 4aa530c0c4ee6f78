#include "util/ThreadPool.h"

#include <algorithm>
#include <exception>

namespace bzk {

ThreadPool::ThreadPool(size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::max(1u, std::thread::hardware_concurrency());
    }
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobs_.push(std::move(job));
        ++in_flight_;
    }
    cv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t, size_t)> &body)
{
    if (n == 0)
        return;
    size_t chunks = std::min(n, workers_.size() * 4);
    size_t chunk = (n + chunks - 1) / chunks;
    // An exception escaping workerLoop() would std::terminate the
    // process, so every chunk is fenced here and the first failure is
    // rethrown on the caller once all chunks have drained.
    std::exception_ptr first_error;
    std::mutex error_mutex;
    // Every chunk is queued under one lock with one wake-up: a notify
    // per chunk costs a futex call each.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t begin = 0; begin < n; begin += chunk) {
            size_t end = std::min(n, begin + chunk);
            jobs_.push([&body, &first_error, &error_mutex, begin, end] {
                try {
                    body(begin, end);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error)
                        first_error = std::current_exception();
                }
            });
            ++in_flight_;
        }
    }
    cv_.notify_all();
    // Help instead of sleeping: the caller runs queued chunks until
    // none are left, then waits only for the ones already on workers.
    while (runQueuedJob()) {
    }
    wait();
    if (first_error)
        std::rethrow_exception(first_error);
}

bool
ThreadPool::runQueuedJob()
{
    std::function<void()> job;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (jobs_.empty())
            return false;
        job = std::move(jobs_.front());
        jobs_.pop();
    }
    job();
    finishJob();
    return true;
}

void
ThreadPool::finishJob()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (--in_flight_ == 0)
        idle_cv_.notify_all();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
            if (jobs_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            job = std::move(jobs_.front());
            jobs_.pop();
        }
        job();
        finishJob();
    }
}

} // namespace bzk
