/**
 * @file
 * Tests for the streaming-service queueing model and the multi-GPU
 * fleet dispatcher.
 */

#include <gtest/gtest.h>

#include "core/MultiGpu.h"
#include "core/PipelinedSystem.h"
#include "core/StreamingService.h"
#include "gpusim/Device.h"

namespace bzk {
namespace {

class StreamingTest : public ::testing::Test
{
  protected:
    gpusim::Device dev_{gpusim::DeviceSpec::gh200()};
    SystemOptions opt_{};
};

TEST_F(StreamingTest, LightLoadLatencyIsPipelineDepth)
{
    StreamingZkpService service(dev_, opt_);
    StreamingOptions w;
    w.n_vars = 18;
    w.num_requests = 2000;
    Rng probe(0);
    auto probe_result = service.run(
        [&] {
            StreamingOptions tiny = w;
            tiny.num_requests = 10;
            return tiny;
        }(),
        probe);
    // 10% load.
    w.arrival_rate_per_ms = 0.1 / probe_result.cycle_ms;
    Rng rng(4);
    auto r = service.run(w, rng);
    double pipeline_ms = static_cast<double>(r.depth) * r.cycle_ms;
    EXPECT_LT(r.p50_ms, pipeline_ms * 1.2);
    EXPECT_LT(r.mean_queue, 1.0);
}

TEST_F(StreamingTest, HeavyLoadQueues)
{
    StreamingZkpService service(dev_, opt_);
    Rng probe(0);
    StreamingOptions tiny;
    tiny.n_vars = 18;
    tiny.num_requests = 10;
    auto probe_result = service.run(tiny, probe);

    StreamingOptions w;
    w.n_vars = 18;
    w.num_requests = 4000;
    w.arrival_rate_per_ms = 1.5 / probe_result.cycle_ms; // 150% load
    Rng rng(5);
    auto r = service.run(w, rng);
    EXPECT_GT(r.offered_load, 1.0);
    // Saturated: tail latency far above the pipeline depth, and the
    // service completes at (almost exactly) one proof per cycle.
    double pipeline_ms = static_cast<double>(r.depth) * r.cycle_ms;
    EXPECT_GT(r.p99_ms, pipeline_ms * 5.0);
    EXPECT_NEAR(r.throughput_per_ms * r.cycle_ms, 1.0, 0.05);
}

TEST_F(StreamingTest, LatencyMonotoneInLoad)
{
    StreamingZkpService service(dev_, opt_);
    Rng probe(0);
    StreamingOptions tiny;
    tiny.n_vars = 18;
    tiny.num_requests = 10;
    double cycle = service.run(tiny, probe).cycle_ms;

    double prev_p90 = 0.0;
    for (double load : {0.2, 0.6, 0.95}) {
        StreamingOptions w;
        w.n_vars = 18;
        w.num_requests = 3000;
        w.arrival_rate_per_ms = load / cycle;
        Rng rng(6);
        auto r = service.run(w, rng);
        EXPECT_GE(r.p90_ms, prev_p90) << "load " << load;
        prev_p90 = r.p90_ms;
    }
}

TEST_F(StreamingTest, OverlapAblationRaisesCycleTime)
{
    StreamingOptions w;
    w.n_vars = 20;
    w.num_requests = 100;
    w.arrival_rate_per_ms = 0.01;
    Rng r1(7), r2(7);
    StreamingZkpService with(dev_, opt_);
    SystemOptions no_overlap = opt_;
    no_overlap.overlap_transfers = false;
    StreamingZkpService without(dev_, no_overlap);
    EXPECT_LT(with.run(w, r1).cycle_ms, without.run(w, r2).cycle_ms);
}

TEST_F(StreamingTest, DeterministicGivenSeed)
{
    StreamingZkpService service(dev_, opt_);
    StreamingOptions w;
    w.n_vars = 16;
    w.num_requests = 500;
    w.arrival_rate_per_ms = 0.5;
    Rng r1(8), r2(8);
    auto a = service.run(w, r1);
    auto b = service.run(w, r2);
    EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
    EXPECT_DOUBLE_EQ(a.mean_queue, b.mean_queue);
}

TEST(MultiGpu, TwoIdenticalCardsNearlyDouble)
{
    SystemOptions opt;
    opt.functional = 0;
    Rng r1(10), r2(10);
    MultiGpuZkpSystem one({gpusim::DeviceSpec::h100()}, opt);
    MultiGpuZkpSystem two(
        {gpusim::DeviceSpec::h100(), gpusim::DeviceSpec::h100()}, opt);
    auto a = one.run(256, 18, r1);
    auto b = two.run(256, 18, r2);
    double scaling =
        b.total_throughput_per_ms / a.total_throughput_per_ms;
    EXPECT_GT(scaling, 1.8);
    EXPECT_LT(scaling, 2.1);
}

TEST(MultiGpu, HeterogeneousFleetSplitsByCapability)
{
    SystemOptions opt;
    opt.functional = 0;
    Rng rng(11);
    MultiGpuZkpSystem fleet(
        {gpusim::DeviceSpec::h100(), gpusim::DeviceSpec::v100()}, opt);
    auto r = fleet.run(300, 18, rng);
    ASSERT_EQ(r.per_device.size(), 2u);
    // The H100 gets the bigger slice and both finish near each other.
    EXPECT_GT(r.per_device[0].stats.batch, r.per_device[1].stats.batch);
    double t0 = r.per_device[0].stats.total_ms;
    double t1 = r.per_device[1].stats.total_ms;
    EXPECT_LT(std::max(t0, t1) / std::min(t0, t1), 1.6);
}

TEST(MultiGpu, MemoryScalesWithFleetNotBatch)
{
    SystemOptions opt;
    opt.functional = 0;
    Rng r1(12), r2(12);
    MultiGpuZkpSystem fleet(
        {gpusim::DeviceSpec::a100(), gpusim::DeviceSpec::a100()}, opt);
    auto small = fleet.run(64, 18, r1);
    auto large = fleet.run(512, 18, r2);
    EXPECT_EQ(small.total_device_bytes, large.total_device_bytes);
}

} // namespace
} // namespace bzk
