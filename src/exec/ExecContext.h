#ifndef BZK_EXEC_EXECCONTEXT_H_
#define BZK_EXEC_EXECCONTEXT_H_

/**
 * @file
 * Shared host-execution layer: the one place the library decides how
 * many host cores a cryptographic hot loop may use, and how a loop is
 * split across them.
 *
 * An ExecContext resolves a thread count (explicit config >
 * setDefaultThreads() override > BZK_THREADS env > hardware
 * concurrency), borrows a process-wide ThreadPool of that size, and
 * offers a parallelFor that gives each thread one contiguous share of
 * a range, with a serial cutoff, plus deterministic per-chunk
 * reduction helpers (reduceChunked). The chunk shape of a
 * reduction depends only on the item count, never on the thread count,
 * so reduced field sums — and therefore proof bytes and Merkle roots —
 * are bit-identical for 1, 2, or N threads (pinned by test_exec and
 * test_system).
 *
 * The modules re-hosted on this layer are the paper's three: Merkle
 * layer hashing (Sec. 3.1), sum-check round evaluation (Sec. 3.2), and
 * the Spielman encoder's sparse-matrix stages (Sec. 3.3) — the host
 * analogue of the paper's one-thread-per-node GPU kernels, and of the
 * multi-core CPU baselines it measures (Orion, Arkworks).
 */

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bzk {
class ThreadPool;
} // namespace bzk

namespace bzk::exec {

/** Host-parallelism knobs, plumbed through every front-end config. */
struct ExecConfig
{
    /**
     * Threads a parallel region runs on, the caller's included: the
     * pool starts threads - 1 workers. 0 resolves via
     * setDefaultThreads(), then the BZK_THREADS environment variable,
     * then hardware concurrency.
     */
    size_t threads = 0;
};

/**
 * parallelFor runs inline on the caller below this many items —
 * fine-grained loops are not worth a pool round-trip.
 */
inline constexpr size_t kSerialCutoff = 1024;

/**
 * Set the process-wide default thread count used when
 * ExecConfig::threads == 0 (the `--threads` CLI flag lands here).
 * 0 clears the override.
 */
void setDefaultThreads(size_t threads);

/**
 * Resolve @p requested to a concrete thread count: a non-zero request
 * wins, then the setDefaultThreads() override, then BZK_THREADS, then
 * hardware concurrency (at least 1).
 */
size_t resolveThreads(size_t requested);

/** Wall/busy accounting for one tagged region (or the totals). */
struct RegionStats
{
    /** Caller-side wall time spent inside parallelFor, ms. */
    double wall_ms = 0.0;
    /** Summed per-share thread time, ms (== wall_ms when serial). */
    double busy_ms = 0.0;
    /** parallelFor invocations accounted. */
    size_t calls = 0;
};

/**
 * A resolved execution context: thread count, shared pool, accounting.
 * Cheap to construct (pools are cached process-wide per thread count)
 * and safe to share by const reference across a proving pipeline.
 */
class ExecContext
{
  public:
    explicit ExecContext(ExecConfig cfg = {});

    /** Resolved thread count, the caller's included (>= 1). */
    size_t threads() const { return threads_; }

    /**
     * Split [0, n) into one contiguous share per thread and run
     * @p body(begin, end) on each (ThreadPool::parallelFor: share 0 on
     * the caller), blocking until all shares finish. Runs inline
     * when the context is single-threaded, when n is below
     * kSerialCutoff, or when called from inside another parallelFor body
     * (nested parallelism degrades to serial instead of deadlocking
     * the shared pool). Exceptions from shares propagate to the
     * caller (first one wins).
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t, size_t)> &body) const;

    /**
     * Same, with an explicit @p serial_cutoff for coarse loops whose
     * per-item work dwarfs the default cutoff's assumptions (e.g. one
     * item = one row encoding).
     */
    void parallelFor(size_t n, size_t serial_cutoff,
                     const std::function<void(size_t, size_t)> &body) const;

    /**
     * Tag subsequent parallelFor calls for per-module accounting
     * ("encoder", "merkle", "sumcheck", "open"). Caller-thread state;
     * set it outside parallel regions.
     */
    void setRegion(const char *name) const;

    /** Accounting for one region ("" unknown regions read as zeros). */
    RegionStats stats(const std::string &region) const;

    /** Accounting summed over all regions. */
    RegionStats totals() const;

    /**
     * busy / (wall * threads) over everything accounted so far: 1.0 is
     * perfect scaling, 1/threads is no scaling. Returns 1.0 before any
     * parallel region has run.
     */
    double parallelEfficiency() const;

    /** Drop all accumulated accounting. */
    void resetStats() const;

  private:
    void account(double wall_ms, double busy_ms) const;

    size_t threads_ = 1;
    std::shared_ptr<ThreadPool> pool_;
    mutable std::mutex stats_mutex_;
    mutable std::string region_ = "untagged";
    mutable std::map<std::string, RegionStats> stats_;
};

/**
 * Fixed chunk width for reduceChunked: the reduction tree's shape is a
 * function of the item count alone, never of the thread count.
 */
inline constexpr size_t kReduceChunk = 2048;

/**
 * Deterministic chunked reduction over [0, n): @p chunk_fn maps each
 * fixed-width chunk [begin, end) to a partial of type T (chunks run in
 * parallel under @p exec, serially when exec is null), then the
 * partials are combined by a fixed-shape pairwise tree in index order.
 * Identical chunk boundaries and combine shape for every thread count
 * make the result bit-identical to the serial pass for any @p combine,
 * associative or not.
 */
template <typename T, typename ChunkFn, typename CombineFn>
T
reduceChunked(const ExecContext *exec, size_t n, const T &identity,
              ChunkFn &&chunk_fn, CombineFn &&combine,
              size_t chunk = kReduceChunk)
{
    if (n == 0)
        return identity;
    if (chunk == 0)
        chunk = kReduceChunk;
    size_t chunks = (n + chunk - 1) / chunk;
    std::vector<T> level(chunks, identity);
    auto run = [&](size_t c_begin, size_t c_end) {
        for (size_t c = c_begin; c < c_end; ++c) {
            size_t begin = c * chunk;
            size_t end = begin + chunk < n ? begin + chunk : n;
            level[c] = chunk_fn(begin, end);
        }
    };
    if (exec)
        exec->parallelFor(chunks, /*serial_cutoff=*/2, run);
    else
        run(0, chunks);
    // Fixed-shape pairwise tree: (0,1)(2,3)... per level, odd tail
    // carried up unchanged.
    while (level.size() > 1) {
        size_t pairs = level.size() / 2;
        std::vector<T> next;
        next.reserve(pairs + (level.size() & 1));
        for (size_t i = 0; i < pairs; ++i)
            next.push_back(combine(level[2 * i], level[2 * i + 1]));
        if (level.size() & 1)
            next.push_back(level.back());
        level = std::move(next);
    }
    return level.front();
}

} // namespace bzk::exec

#endif // BZK_EXEC_EXECCONTEXT_H_
