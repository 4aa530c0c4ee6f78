#include <gtest/gtest.h>

#include "Helpers.h"

using namespace bzk::perfbench;

TEST(Percentile, InterpolatesBetweenOrderStatistics)
{
    std::vector<double> v = {5, 1, 4, 2, 3};
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(percentile({}, 0.9), 0.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt)
{
    // p90 needs 100 samples: 10 lie beyond it.
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
    EXPECT_TRUE(tailSupported(100, 0.9));
    EXPECT_FALSE(tailSupported(99, 0.9));
    // p99 needs 1000; the median needs 20.
    EXPECT_TRUE(tailSupported(1000, 0.99));
    EXPECT_FALSE(tailSupported(999, 0.99));
    EXPECT_TRUE(tailSupported(20, 0.5));
    EXPECT_FALSE(tailSupported(19, 0.5));
}

TEST(Percentile, TailOfTheServedScheduleIsSupported)
{
    // A 10 s serve run at the workload's rate yields enough requests of
    // each kind for an honest per-kind p90.
    EXPECT_TRUE(
        tailSupported(poissonSchedule(1, kRatePerS, 10.0).size() / 2, 0.9));
}

TEST(Schedule, SameSeedSameSchedule)
{
    auto a = poissonSchedule(7, 40.0, 10.0);
    auto b = poissonSchedule(7, 40.0, 10.0);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].due_ms, b[i].due_ms);
        EXPECT_EQ(a[i].high_degree, b[i].high_degree);
    }
    auto c = poissonSchedule(8, 40.0, 10.0);
    ASSERT_EQ(a.size(), c.size());
    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i)
        differs |= a[i].due_ms != c[i].due_ms;
    EXPECT_TRUE(differs);
}

TEST(Schedule, CountWindowAndMixArePinned)
{
    auto s = poissonSchedule(3, 40.0, 10.0);
    ASSERT_EQ(s.size(), 400u);
    size_t high = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        EXPECT_GE(s[i].due_ms, 0.0);
        EXPECT_LT(s[i].due_ms, 10000.0);
        if (i > 0) {
            EXPECT_LE(s[i - 1].due_ms, s[i].due_ms);
        }
        high += s[i].high_degree;
    }
    EXPECT_EQ(high, 200u);
}

TEST(Schedule, GapsLookExponential)
{
    // Mean gap 1/rate; for an exponential the standard deviation equals
    // the mean (a fixed-rate schedule would have none).
    auto s = poissonSchedule(11, 100.0, 100.0);
    double sum = 0, sq = 0;
    for (size_t i = 1; i < s.size(); ++i) {
        double g = s[i].due_ms - s[i - 1].due_ms;
        sum += g;
        sq += g * g;
    }
    double n = static_cast<double>(s.size() - 1);
    double mean = sum / n;
    double sd = std::sqrt(sq / n - mean * mean);
    EXPECT_NEAR(mean, 10.0, 0.5);
    EXPECT_NEAR(sd / mean, 1.0, 0.1);
}

TEST(MetricName, Charset)
{
    EXPECT_TRUE(validMetricName("setup_s"));
    EXPECT_TRUE(validMetricName("core.commit_ms"));
    EXPECT_TRUE(validMetricName("net.queue_wait_ms_p90"));
    EXPECT_TRUE(validMetricName("9lives-ok"));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName(".leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/not"));
    EXPECT_FALSE(validMetricName("quote\""));
}

TEST(MetricName, UnitCharset)
{
    for (const char *u : {"ms", "s", "1/s", "count", "B", "MiB", "ratio", "%"})
        EXPECT_TRUE(validUnit(u)) << u;
    EXPECT_FALSE(validUnit(""));
    EXPECT_FALSE(validUnit("seventeen-chars-x"));
    EXPECT_FALSE(validUnit("m s"));
}

TEST(SelfTime, ParentLosesDirectChildrenOnly)
{
    // prove [0,10] -> commit [0,5], fiat_shamir [5,6] -> nested [5,5.5],
    // open [6,10]; then a sibling serialize [10,12].
    std::vector<Interval> spans = {
        {0, 10}, {0, 5}, {5, 6}, {5, 5.5}, {6, 10}, {10, 12},
    };
    auto self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 0.0);
    EXPECT_DOUBLE_EQ(self[1], 5.0);
    EXPECT_DOUBLE_EQ(self[2], 0.5);
    EXPECT_DOUBLE_EQ(self[3], 0.5);
    EXPECT_DOUBLE_EQ(self[4], 4.0);
    EXPECT_DOUBLE_EQ(self[5], 2.0);
}
