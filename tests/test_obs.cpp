/**
 * @file
 * The observability layer: metric instruments and their exports, trace
 * recording and its Chrome JSON rendering, and — most important — the
 * pin that attaching observers leaves every proof bit-identical, the
 * same null-object discipline test_faults pins for the FaultInjector.
 */

#include <gtest/gtest.h>

#include "core/PipelinedSystem.h"
#include "gpusim/Device.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "util/Rng.h"

namespace bzk {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::TraceRecorder;

TEST(Counter, AccumulatesAndIgnoresNegative)
{
    obs::Counter c;
    EXPECT_EQ(c.value(), 0.0);
    c.add();
    c.add(2.5);
    EXPECT_EQ(c.value(), 3.5);
    testing::internal::CaptureStderr();
    c.add(-1.0);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("negative"), std::string::npos);
    EXPECT_EQ(c.value(), 3.5);
}

TEST(HistogramTest, BucketBoundariesFollowLeSemantics)
{
    Histogram h({1.0, 2.0, 5.0});
    // A sample on a bound belongs to that bound's bucket (le = "<=").
    h.observe(0.5); // le 1
    h.observe(1.0); // le 1 (boundary)
    h.observe(1.5); // le 2
    h.observe(2.0); // le 2 (boundary)
    h.observe(5.0); // le 5 (boundary)
    h.observe(7.0); // +Inf
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u); // +Inf bucket
    EXPECT_EQ(h.cumulativeCount(0), 2u);
    EXPECT_EQ(h.cumulativeCount(1), 4u);
    EXPECT_EQ(h.cumulativeCount(2), 5u);
    EXPECT_EQ(h.cumulativeCount(3), 6u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 7.0);
}

TEST(HistogramTest, NegativeAndHugeSamplesLandInEdgeBuckets)
{
    Histogram h({0.0, 10.0});
    h.observe(-3.0); // le 0
    h.observe(1e30); // +Inf
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 0u);
    EXPECT_EQ(h.bucketCount(2), 1u);
}

TEST(FormatMetricValue, IntegersDropThePoint)
{
    EXPECT_EQ(obs::formatMetricValue(0.0), "0");
    EXPECT_EQ(obs::formatMetricValue(42.0), "42");
    EXPECT_EQ(obs::formatMetricValue(-7.0), "-7");
    EXPECT_EQ(obs::formatMetricValue(2.5), "2.5");
}

TEST(MetricsRegistryTest, LookupCreatesOnceAndFindsLater)
{
    MetricsRegistry reg;
    reg.counter("bzk_a_total").add(1);
    reg.counter("bzk_a_total").add(1);
    EXPECT_EQ(reg.counter("bzk_a_total").value(), 2.0);
    EXPECT_TRUE(reg.has("bzk_a_total"));
    EXPECT_FALSE(reg.has("bzk_b_total"));
    reg.gauge("bzk_g").set(5);
    reg.histogram("bzk_h", {1.0});
    EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistryTest, InvalidNameWarnsButWorks)
{
    MetricsRegistry reg;
    testing::internal::CaptureStderr();
    reg.counter("0bad name").add(1);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("not a valid Prometheus"), std::string::npos);
    EXPECT_EQ(reg.counter("0bad name").value(), 1.0);
}

TEST(MetricsRegistryTest, PrometheusExportGolden)
{
    MetricsRegistry reg;
    reg.counter("bzk_tasks_total", "proof tasks admitted").add(3);
    reg.gauge("bzk_util").set(0.5);
    auto &h = reg.histogram("bzk_cycle_ms", {1.0, 2.0}, "cycle time");
    h.observe(0.5);
    h.observe(1.5);
    h.observe(9.0);
    EXPECT_EQ(reg.toPrometheus(),
              "# HELP bzk_tasks_total proof tasks admitted\n"
              "# TYPE bzk_tasks_total counter\n"
              "bzk_tasks_total 3\n"
              "# TYPE bzk_util gauge\n"
              "bzk_util 0.5\n"
              "# HELP bzk_cycle_ms cycle time\n"
              "# TYPE bzk_cycle_ms histogram\n"
              "bzk_cycle_ms_bucket{le=\"1\"} 1\n"
              "bzk_cycle_ms_bucket{le=\"2\"} 2\n"
              "bzk_cycle_ms_bucket{le=\"+Inf\"} 3\n"
              "bzk_cycle_ms_sum 11\n"
              "bzk_cycle_ms_count 3\n");
}

TEST(MetricsRegistryTest, JsonExportGolden)
{
    MetricsRegistry reg;
    reg.counter("bzk_tasks_total").add(3);
    reg.gauge("bzk_util").set(0.5);
    auto &h = reg.histogram("bzk_cycle_ms", {1.0, 2.0});
    h.observe(0.5);
    h.observe(9.0);
    EXPECT_EQ(reg.toJson(),
              "{\"counters\":{\"bzk_tasks_total\":3},"
              "\"gauges\":{\"bzk_util\":0.5},"
              "\"histograms\":{\"bzk_cycle_ms\":{\"buckets\":["
              "{\"le\":1,\"count\":1},{\"le\":2,\"count\":0},"
              "{\"le\":\"+Inf\",\"count\":1}],"
              "\"sum\":9.5,\"count\":2}}}");
}

TEST(MetricsRegistryTest, ExportOrderIsLexicographic)
{
    MetricsRegistry reg;
    reg.counter("bzk_z_total").add(1);
    reg.counter("bzk_a_total").add(1);
    std::string text = reg.toPrometheus();
    EXPECT_LT(text.find("bzk_a_total"), text.find("bzk_z_total"));
}

TEST(TraceRecorderTest, SpanNestingDepth)
{
    TraceRecorder rec;
    // Three spans on one track: an outer one, a nested one, and a
    // later disjoint one. Depth is 2, not 3.
    rec.span("lane:merkle", "outer", "merkle", 0.0, 10.0, 0);
    rec.span("lane:merkle", "inner", "merkle", 2.0, 8.0, 0);
    rec.span("lane:merkle", "later", "merkle", 11.0, 12.0, 1);
    rec.span("lane:encoder", "other", "encoder", 0.0, 5.0, 0);
    EXPECT_EQ(rec.maxNestingDepth("lane:merkle"), 2u);
    EXPECT_EQ(rec.maxNestingDepth("lane:encoder"), 1u);
    EXPECT_EQ(rec.maxNestingDepth("no-such-track"), 0u);
    EXPECT_EQ(rec.spanCount("merkle"), 3u);
    EXPECT_EQ(rec.spanCount("encoder"), 1u);
}

TEST(TraceRecorderTest, BackwardsSpanIsDroppedWithWarning)
{
    TraceRecorder rec;
    testing::internal::CaptureStderr();
    rec.span("t", "bad", "c", 5.0, 4.0);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("TraceRecorder"), std::string::npos);
    EXPECT_TRUE(rec.spans().empty());
}

TEST(TraceRecorderTest, ChromeJsonShape)
{
    TraceRecorder rec;
    rec.span("lane:sumcheck", "sumcheck[c3]", "sumcheck", 1.0, 2.5, 3);
    rec.instant("faults", "lane-failure[c3]", "fault", 1.5, 3);
    std::string json = rec.chromeTraceJson();
    // Track metadata, complete event, instant event — timestamps in
    // microseconds.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"lane:sumcheck\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":1500"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"cycle\":3"), std::string::npos);
    // A bare event array is the canonical chrome://tracing format.
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
}

TEST(TraceRecorderTest, ClearDropsEverything)
{
    TraceRecorder rec;
    rec.span("t", "s", "c", 0.0, 1.0);
    rec.instant("t", "i", "c", 0.5);
    rec.clear();
    EXPECT_TRUE(rec.spans().empty());
    EXPECT_TRUE(rec.instants().empty());
    EXPECT_EQ(rec.maxNestingDepth("t"), 0u);
}

/** One batch run, optionally observed. */
SystemRunResult
runSystem(bool observed, MetricsRegistry *metrics, TraceRecorder *trace)
{
    gpusim::Device dev(gpusim::DeviceSpec::v100());
    SystemOptions opt;
    opt.functional = 1;
    opt.seed = 2024;
    PipelinedZkpSystem system(dev, opt);
    if (observed) {
        dev.setTraceRecorder(trace);
        system.setObservability(metrics, trace);
    }
    Rng rng(2024);
    return system.run(24, 10, rng);
}

TEST(ObserverDiscipline, InstrumentedRunIsBitIdentical)
{
    // The whole layer is observe-only: a run with a registry and a
    // recorder attached must produce byte-identical proofs and
    // identical timing to a run that never heard of obs.
    auto plain = runSystem(false, nullptr, nullptr);
    MetricsRegistry metrics;
    TraceRecorder trace;
    auto observed = runSystem(true, &metrics, &trace);

    EXPECT_EQ(plain.stats.total_ms, observed.stats.total_ms);
    EXPECT_EQ(plain.stats.throughput_per_ms,
              observed.stats.throughput_per_ms);
    EXPECT_EQ(plain.stats.first_latency_ms,
              observed.stats.first_latency_ms);
    EXPECT_EQ(plain.stats.peak_device_bytes,
              observed.stats.peak_device_bytes);
    EXPECT_EQ(plain.cycle_ms, observed.cycle_ms);
    ASSERT_EQ(plain.proofs.size(), observed.proofs.size());
    for (size_t i = 0; i < plain.proofs.size(); ++i)
        EXPECT_EQ(plain.proofs[i], observed.proofs[i])
            << "proof " << i << " diverged under observation";

    // And the observers actually saw the run.
    EXPECT_GT(metrics.counter("bzk_cycles_total").value(), 0.0);
    EXPECT_EQ(metrics.counter("bzk_tasks_total").value(), 24.0);
    EXPECT_GT(trace.spanCount("encoder"), 0u);
    EXPECT_GT(trace.spanCount("merkle"), 0u);
    EXPECT_GT(trace.spanCount("sumcheck"), 0u);
    EXPECT_GT(trace.spanCount("h2d"), 0u);
}

TEST(ObserverDiscipline, MetricsMatchRunStats)
{
    MetricsRegistry metrics;
    TraceRecorder trace;
    auto r = runSystem(true, &metrics, &trace);
    EXPECT_EQ(metrics.counter("bzk_tasks_total").value(),
              static_cast<double>(r.stats.batch));
    EXPECT_EQ(metrics.gauge("bzk_utilization").value(),
              r.stats.utilization);
    auto &h = metrics.histogram("bzk_cycle_ms", {});
    EXPECT_EQ(h.count(), metrics.counter("bzk_cycles_total").value());
}

} // namespace
} // namespace bzk
