#include "util/ThreadPool.h"

#include <algorithm>
#include <utility>

namespace bzk {

ThreadPool::ThreadPool(size_t num_threads)
{
    if (num_threads == 0)
        num_threads = std::max(1u, std::thread::hardware_concurrency());
    workers_.reserve(num_threads - 1);
    for (size_t share = 1; share < num_threads; ++share)
        workers_.emplace_back([this, share] { workerLoop(share); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    start_cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t, size_t)> &body)
{
    if (n == 0)
        return;
    std::lock_guard<std::mutex> turn(turn_);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        body_ = &body;
        n_ = n;
        pending_ = workers_.size();
        ++generation_;
    }
    start_cv_.notify_all();
    runShare(0);
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [this] { return pending_ == 0; });
        error = std::exchange(error_, nullptr);
    }
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::runShare(size_t share)
{
    const size_t base = n_ / size();
    const size_t extra = n_ % size();
    const size_t begin = share * base + std::min(share, extra);
    const size_t end = begin + base + (share < extra ? 1 : 0);
    if (begin == end)
        return;
    // An exception escaping workerLoop() would std::terminate the
    // process, so every share is fenced here and the first failure is
    // rethrown on the caller once all shares have finished.
    try {
        (*body_)(begin, end);
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_)
            error_ = std::current_exception();
    }
}

void
ThreadPool::workerLoop(size_t share)
{
    uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [this, seen] {
                return stopping_ || generation_ != seen;
            });
            if (stopping_)
                return;
            seen = generation_;
        }
        runShare(share);
        std::lock_guard<std::mutex> lock(mutex_);
        if (--pending_ == 0)
            done_cv_.notify_one();
    }
}

} // namespace bzk
