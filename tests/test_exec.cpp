/**
 * @file
 * ExecContext: thread resolution, chunking/cutoff edge cases, the
 * fixed-shape deterministic reduction, nested-region safety, exception
 * propagation, and the region accounting the system metrics read.
 */

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/ExecContext.h"
#include "ff/Fields.h"
#include "util/Rng.h"

namespace bzk::exec {
namespace {

ExecContext
makeContext(size_t threads)
{
    ExecConfig cfg;
    cfg.threads = threads;
    return ExecContext(cfg);
}

TEST(ExecContextTest, ResolvesExplicitRequestFirst)
{
    EXPECT_EQ(makeContext(1).threads(), 1u);
    EXPECT_EQ(makeContext(3).threads(), 3u);
    // 0 falls through to the default/env/hardware chain; always >= 1.
    EXPECT_GE(makeContext(0).threads(), 1u);
}

TEST(ExecContextTest, DefaultOverrideBeatsEnvironment)
{
    setDefaultThreads(5);
    EXPECT_EQ(resolveThreads(0), 5u);
    EXPECT_EQ(resolveThreads(2), 2u); // explicit still wins
    setDefaultThreads(0);
    EXPECT_GE(resolveThreads(0), 1u);
}

TEST(ExecContextTest, ParallelForEmptyRangeRunsNothing)
{
    ExecContext exec = makeContext(4);
    std::atomic<size_t> calls{0};
    exec.parallelFor(0, /*serial_cutoff=*/1,
                     [&](size_t, size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0u);
}

TEST(ExecContextTest, ParallelForCoversEveryIndexExactlyOnce)
{
    ExecContext exec = makeContext(4);
    for (size_t n : {1ul, 2ul, 3ul, 7ul, 1000ul}) {
        std::vector<std::atomic<int>> hits(n);
        exec.parallelFor(n, /*serial_cutoff=*/1,
                         [&](size_t begin, size_t end) {
                             for (size_t i = begin; i < end; ++i)
                                 ++hits[i];
                         });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
}

TEST(ExecContextTest, FewerItemsThanWorkersStillCovered)
{
    // n < threads: shares degenerate to single items, none dropped.
    ExecContext exec = makeContext(8);
    std::vector<std::atomic<int>> hits(3);
    exec.parallelFor(3, /*serial_cutoff=*/1,
                     [&](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i)
                             ++hits[i];
                     });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ExecContextTest, RegionRunsOnExactlyItsThreadCount)
{
    // threads() counts the caller: a region of n >= T items runs one
    // share on each of exactly T distinct threads, the caller's one.
    for (size_t t : {2u, 3u, 4u}) {
        ExecContext exec = makeContext(t);
        for (size_t n : {t, size_t{4096}}) {
            std::mutex mutex;
            std::set<std::thread::id> threads;
            exec.parallelFor(n, /*serial_cutoff=*/1,
                             [&](size_t, size_t) {
                                 std::lock_guard<std::mutex> lock(mutex);
                                 threads.insert(std::this_thread::get_id());
                             });
            EXPECT_EQ(threads.size(), t) << "T=" << t << " n=" << n;
            EXPECT_EQ(threads.count(std::this_thread::get_id()), 1u);
        }
    }
}

TEST(ExecContextTest, SerialCutoffRunsInline)
{
    ExecContext exec = makeContext(4);
    std::thread::id caller = std::this_thread::get_id();
    bool inline_run = true;
    exec.parallelFor(16, /*serial_cutoff=*/64,
                     [&](size_t, size_t) {
                         if (std::this_thread::get_id() != caller)
                             inline_run = false;
                     });
    EXPECT_TRUE(inline_run);
}

TEST(ExecContextTest, SingleThreadNeverSpawnsWorkers)
{
    ExecContext exec = makeContext(1);
    std::thread::id caller = std::this_thread::get_id();
    bool inline_run = true;
    exec.parallelFor(100000, /*serial_cutoff=*/1,
                     [&](size_t, size_t) {
                         if (std::this_thread::get_id() != caller)
                             inline_run = false;
                     });
    EXPECT_TRUE(inline_run);
}

TEST(ExecContextTest, NestedParallelForRunsInlineWithoutDeadlock)
{
    ExecContext exec = makeContext(4);
    std::atomic<size_t> inner_total{0};
    exec.parallelFor(8, /*serial_cutoff=*/1,
                     [&](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                             exec.parallelFor(
                                 4, /*serial_cutoff=*/1,
                                 [&](size_t b, size_t e) {
                                     inner_total += e - b;
                                 });
                         }
                     });
    EXPECT_EQ(inner_total.load(), 32u);
}

TEST(ExecContextTest, ExceptionPropagatesAndContextStaysUsable)
{
    ExecContext exec = makeContext(4);
    EXPECT_THROW(
        exec.parallelFor(100, /*serial_cutoff=*/1,
                         [](size_t begin, size_t) {
                             if (begin == 0)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool must survive for later regions.
    std::atomic<size_t> covered{0};
    exec.parallelFor(100, /*serial_cutoff=*/1,
                     [&](size_t begin, size_t end) {
                         covered += end - begin;
                     });
    EXPECT_EQ(covered.load(), 100u);
}

TEST(ReduceChunkedTest, HandlesEmptyAndTinyInputs)
{
    ExecContext exec = makeContext(4);
    auto chunk_sum = [](size_t begin, size_t end) {
        uint64_t s = 0;
        for (size_t i = begin; i < end; ++i)
            s += i + 1;
        return s;
    };
    auto add = [](uint64_t a, uint64_t b) { return a + b; };
    EXPECT_EQ(reduceChunked<uint64_t>(&exec, 0, 0, chunk_sum, add), 0u);
    EXPECT_EQ(reduceChunked<uint64_t>(&exec, 1, 0, chunk_sum, add), 1u);
    EXPECT_EQ(reduceChunked<uint64_t>(&exec, 3, 0, chunk_sum, add), 6u);
    // n smaller than one chunk, and a chunk size above n.
    EXPECT_EQ(reduceChunked<uint64_t>(&exec, 5, 0, chunk_sum, add, 64),
              15u);
    // Null context: pure serial path, same result.
    EXPECT_EQ(reduceChunked<uint64_t>(nullptr, 5, 0, chunk_sum, add),
              15u);
}

TEST(ReduceChunkedTest, FieldSumBitIdenticalAcrossThreadCounts)
{
    Rng rng(77);
    std::vector<Fr> xs(10000);
    for (auto &x : xs)
        x = Fr::random(rng);
    auto chunk_sum = [&](size_t begin, size_t end) {
        Fr s = Fr::zero();
        for (size_t i = begin; i < end; ++i)
            s += xs[i];
        return s;
    };
    auto add = [](const Fr &a, const Fr &b) { return a + b; };

    Fr serial = reduceChunked<Fr>(nullptr, xs.size(), Fr::zero(),
                                  chunk_sum, add, /*chunk=*/128);
    for (size_t threads : {1ul, 2ul, 8ul}) {
        ExecContext exec = makeContext(threads);
        Fr parallel = reduceChunked<Fr>(&exec, xs.size(), Fr::zero(),
                                        chunk_sum, add, /*chunk=*/128);
        EXPECT_EQ(parallel, serial) << "threads=" << threads;
    }
}

TEST(ExecContextTest, RegionAccountingTracksWork)
{
    ExecContext exec = makeContext(2);
    exec.setRegion("merkle");
    std::atomic<uint64_t> sink{0};
    exec.parallelFor(4096, /*serial_cutoff=*/1,
                     [&](size_t begin, size_t end) {
                         uint64_t s = 0;
                         for (size_t i = begin; i < end; ++i)
                             s += i * i;
                         sink += s;
                     });
    RegionStats merkle = exec.stats("merkle");
    EXPECT_EQ(merkle.calls, 1u);
    EXPECT_GE(merkle.wall_ms, 0.0);
    EXPECT_EQ(exec.stats("encoder").calls, 0u);
    EXPECT_EQ(exec.totals().calls, 1u);
    double eff = exec.parallelEfficiency();
    EXPECT_GE(eff, 0.0);
    EXPECT_LE(eff, 1.0);
    exec.resetStats();
    EXPECT_EQ(exec.totals().calls, 0u);
}

} // namespace
} // namespace bzk::exec
