/**
 * @file
 * Unit tests for the utility substrate: hex codecs, running statistics,
 * deterministic RNG and the thread pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "util/Hex.h"
#include "util/Rng.h"
#include "util/Stats.h"
#include <stdexcept>

#include "util/ThreadPool.h"

namespace bzk {
namespace {

TEST(Hex, RoundTrip)
{
    std::vector<uint8_t> data{0x00, 0x01, 0xab, 0xff, 0x10};
    std::string hex = toHex(data);
    EXPECT_EQ(hex, "0001abff10");
    EXPECT_EQ(fromHex(hex), data);
}

TEST(Hex, RejectsOddLength)
{
    EXPECT_TRUE(fromHex("abc").empty());
}

TEST(Hex, RejectsBadDigits)
{
    EXPECT_TRUE(fromHex("zz").empty());
}

TEST(Hex, EmptyInput)
{
    EXPECT_EQ(toHex(std::vector<uint8_t>{}), "");
    EXPECT_TRUE(fromHex("").empty());
}

TEST(Hex, UppercaseAccepted)
{
    auto bytes = fromHex("AB");
    ASSERT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bytes[0], 0xab);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, BoundedZero)
{
    Rng rng(7);
    EXPECT_EQ(rng.nextBounded(0), 0u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BoundedRoughlyUniform)
{
    Rng rng(11);
    int counts[4] = {0, 0, 0, 0};
    for (int i = 0; i < 40000; ++i)
        counts[rng.nextBounded(4)]++;
    for (int c : counts) {
        EXPECT_GT(c, 9000);
        EXPECT_LT(c, 11000);
    }
}

TEST(RunningStats, Empty)
{
    RunningStats s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    // min()/max() of an empty accumulator return 0.0, which is
    // indistinguishable from a genuine 0.0 sample — callers must gate
    // on empty() first. This test pins both the sentinel and the gate.
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, EmptyFlagClearsOnFirstSample)
{
    RunningStats s;
    ASSERT_TRUE(s.empty());
    s.add(-3.0);
    EXPECT_FALSE(s.empty());
    // A negative sample shows why the 0.0 sentinel alone is ambiguous:
    // with empty() the caller can tell this real extremum apart.
    EXPECT_EQ(s.min(), -3.0);
    EXPECT_EQ(s.max(), -3.0);
}

TEST(RunningStats, Basic)
{
    RunningStats s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStats, SingleSampleVarianceZero)
{
    RunningStats s;
    s.add(5.0);
    EXPECT_EQ(s.variance(), 0.0);
    // stddev() must be exactly 0 (not NaN) for a single sample: the
    // count-1 Bessel denominator would be 0 without the count guard.
    EXPECT_EQ(s.stddev(), 0.0);
    EXPECT_FALSE(std::isnan(s.stddev()));
}

TEST(RunningStats, StddevNeverNan)
{
    // Identical large samples drive Welford's m2 through catastrophic
    // cancellation; stddev() clamps at 0 instead of sqrt(-epsilon).
    RunningStats s;
    for (int i = 0; i < 100; ++i)
        s.add(1e15 + 0.1);
    EXPECT_FALSE(std::isnan(s.stddev()));
    EXPECT_GE(s.stddev(), 0.0);
}

TEST(TablePrinter, RendersAligned)
{
    TablePrinter t({"a", "long-header"});
    t.addRow({"1", "2"});
    std::string out = t.render();
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_NE(out.find("| 1"), std::string::npos);
}

TEST(TablePrinter, PadsMissingCellsAndWarns)
{
    TablePrinter t({"a", "b", "c"});
    ::testing::internal::CaptureStderr();
    t.addRow({"only"});
    std::string err = ::testing::internal::GetCapturedStderr();
    // A short row is as suspicious as a long one: it used to be
    // accepted silently, hiding dropped benchmark columns.
    EXPECT_NE(err.find("TablePrinter"), std::string::npos);
    EXPECT_NE(err.find("padding"), std::string::npos);
    std::string out = t.render();
    EXPECT_NE(out.find("only"), std::string::npos);
}

TEST(TablePrinter, ExplicitBlankCellsAreSilent)
{
    TablePrinter t({"a", "b", "c"});
    ::testing::internal::CaptureStderr();
    t.addRow({"1", "", ""});
    EXPECT_TRUE(::testing::internal::GetCapturedStderr().empty());
}

TEST(TablePrinter, WarnsOnExtraCellsAndDropsThem)
{
    TablePrinter t({"a", "b"});
    ::testing::internal::CaptureStderr();
    t.addRow({"1", "2", "EXTRA", "MORE"});
    std::string err = ::testing::internal::GetCapturedStderr();
    // The mismatch is reported (default log level Info passes warn),
    // naming the first dropped cell...
    EXPECT_NE(err.find("TablePrinter"), std::string::npos);
    EXPECT_NE(err.find("EXTRA"), std::string::npos);
    // ...and the rendered table keeps only the declared columns.
    std::string out = t.render();
    EXPECT_NE(out.find("| 1"), std::string::npos);
    EXPECT_EQ(out.find("EXTRA"), std::string::npos);
    EXPECT_EQ(out.find("MORE"), std::string::npos);
}

TEST(TablePrinter, ExactWidthRowIsSilent)
{
    TablePrinter t({"a", "b"});
    ::testing::internal::CaptureStderr();
    t.addRow({"1", "2"});
    EXPECT_TRUE(::testing::internal::GetCapturedStderr().empty());
}

TEST(FormatSig, Reasonable)
{
    EXPECT_EQ(formatSig(1234.5678, 4), "1235");
    EXPECT_EQ(formatSig(0.00012345, 3), "0.000123");
}

/** One share as a parallelFor body saw it. */
struct ShareRun
{
    size_t begin;
    size_t end;
    std::thread::id thread;
};

/** The shares one parallelFor ran, sorted by begin. */
std::vector<ShareRun>
runShares(ThreadPool &pool, size_t n)
{
    std::mutex mutex;
    std::vector<ShareRun> runs;
    pool.parallelFor(n, [&](size_t begin, size_t end) {
        std::lock_guard<std::mutex> lock(mutex);
        runs.push_back({begin, end, std::this_thread::get_id()});
    });
    std::sort(runs.begin(), runs.end(),
              [](const ShareRun &a, const ShareRun &b) {
                  return a.begin < b.begin;
              });
    return runs;
}

TEST(ThreadPool, OneContiguousSharePerThread)
{
    // A pool for T threads cuts [0, n) into T shares, share i from
    // i * floor(n / T) + min(i, n mod T), and runs the non-empty ones
    // on distinct threads: share 0 on the caller, and every share on
    // the same thread as in the call before.
    const auto caller = std::this_thread::get_id();
    for (size_t t : {1u, 2u, 3u, 4u}) {
        ThreadPool pool(t);
        EXPECT_EQ(pool.size(), t);
        for (size_t n : {size_t{0}, size_t{1}, t - 1, t, size_t{1000}}) {
            std::vector<ShareRun> want;
            for (size_t i = 0; i < t; ++i) {
                size_t begin = i * (n / t) + std::min(i, n % t);
                size_t end = begin + n / t + (i < n % t ? 1 : 0);
                if (begin < end)
                    want.push_back({begin, end, {}});
            }
            const auto first = runShares(pool, n);
            const auto second = runShares(pool, n);
            ASSERT_EQ(first.size(), want.size()) << "T=" << t << " n=" << n;
            ASSERT_EQ(second.size(), want.size());
            std::set<std::thread::id> threads;
            for (size_t s = 0; s < want.size(); ++s) {
                EXPECT_EQ(first[s].begin, want[s].begin);
                EXPECT_EQ(first[s].end, want[s].end);
                EXPECT_EQ(second[s].begin, want[s].begin);
                EXPECT_EQ(second[s].thread, first[s].thread)
                    << "T=" << t << " n=" << n << " share " << s;
                threads.insert(first[s].thread);
            }
            EXPECT_EQ(threads.size(), want.size());
            if (n > 0) {
                EXPECT_EQ(first[0].thread, caller);
            }
            // Contiguous and covering [0, n) once.
            size_t next = 0;
            for (const ShareRun &run : first) {
                EXPECT_EQ(run.begin, next);
                next = run.end;
            }
            EXPECT_EQ(next, n);
        }
    }
}

TEST(ThreadPool, ParallelForCoversRange)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&hits](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            hits[i].fetch_add(1);
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, CallerRunsShareZero)
{
    // parallelFor's caller runs share 0 itself: the worker's share
    // waits until the caller's has run, so the loop completes only
    // because the caller does not wait for the worker first. (The
    // timeout keeps a caller that only waits from hanging the test.)
    ThreadPool pool(2);
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> caller_ran{false};
    std::atomic<bool> worker_saw_it{false};
    pool.parallelFor(2, [&](size_t, size_t) {
        if (std::this_thread::get_id() == caller) {
            caller_ran = true;
            return;
        }
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!caller_ran.load() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        worker_saw_it = caller_ran.load();
    });
    EXPECT_TRUE(caller_ran.load());
    EXPECT_TRUE(worker_saw_it.load());
}

TEST(ThreadPool, ConcurrentCallersTakeTurns)
{
    // Two threads share one pool; each gets every one of its ranges
    // right. The hit counts are plain ints, so a share that ran twice,
    // or ran on another call's range, shows as a wrong count (and to
    // TSan as a race).
    ThreadPool pool(4);
    auto caller = [&pool](size_t salt, bool &ok) {
        ok = true;
        for (size_t call = 0; call < 100; ++call) {
            size_t n = 50 + 13 * call + salt;
            std::vector<int> hits(n, 0);
            pool.parallelFor(n, [&hits](size_t b, size_t e) {
                for (size_t i = b; i < e; ++i)
                    ++hits[i];
            });
            for (int h : hits)
                ok = ok && h == 1;
        }
    };
    bool ok_a = false;
    bool ok_b = false;
    std::thread a(caller, 0, std::ref(ok_a));
    std::thread b(caller, 7, std::ref(ok_b));
    a.join();
    b.join();
    EXPECT_TRUE(ok_a);
    EXPECT_TRUE(ok_b);
}

TEST(ThreadPool, ParallelForEmpty)
{
    ThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(0, [&ran](size_t, size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesWorkerException)
{
    // Regression: a throwing body used to escape the worker loop and
    // std::terminate the process; now the first exception is rethrown
    // on the caller after all shares finish. The last share runs on a
    // worker.
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](size_t, size_t e) {
                                      if (e == 100)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, UsableAfterParallelForException)
{
    ThreadPool pool(3);
    try {
        pool.parallelFor(100, [](size_t, size_t) {
            throw std::runtime_error("x");
        });
    } catch (const std::runtime_error &) {
    }
    std::atomic<int> counter{0};
    pool.parallelFor(50, [&counter](size_t b, size_t e) {
        counter.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(counter.load(), 50);
}

} // namespace
} // namespace bzk
