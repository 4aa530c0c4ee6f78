/**
 * @file
 * Unit tests for the utility substrate: hex codecs, running statistics,
 * deterministic RNG and the thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

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

TEST(ThreadPool, RunsAllJobs)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
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

TEST(ThreadPool, CallerRunsQueuedChunks)
{
    // parallelFor's caller helps instead of sleeping: with the only
    // worker held inside chunk 0 until the caller has run a chunk,
    // the loop completes only because the caller drains the queue.
    // (The timeout keeps a non-helping pool from hanging the test.)
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::atomic<int> caller_chunks{0};
    pool.parallelFor(4, [&](size_t begin, size_t) {
        if (std::this_thread::get_id() == caller) {
            caller_chunks.fetch_add(1);
            return;
        }
        if (begin != 0)
            return;
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (caller_chunks.load() == 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    });
    EXPECT_GT(caller_chunks.load(), 0);
}

TEST(ThreadPool, ParallelForEmpty)
{
    ThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(0, [&ran](size_t, size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, WaitWithNoJobsReturns)
{
    ThreadPool pool(2);
    pool.wait();
    SUCCEED();
}

TEST(ThreadPool, ParallelForPropagatesWorkerException)
{
    // Regression: a throwing body used to escape the worker loop and
    // std::terminate the process; now the first exception is rethrown
    // on the caller after all chunks finish.
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](size_t b, size_t) {
                                      if (b == 0)
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
