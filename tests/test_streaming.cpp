/**
 * @file
 * Robustness tests for the streaming proof service: sojourn-percentile
 * monotonicity, saturation beyond capacity, and the timeout / retry /
 * shed machinery — including under injected transfer stalls.
 */

#include <gtest/gtest.h>

#include "core/StreamingService.h"
#include "gpusim/Device.h"
#include "gpusim/FaultInjector.h"

namespace bzk {
namespace {

class StreamingRobustnessTest : public ::testing::Test
{
  protected:
    /** Admission interval of the service at these options. */
    double
    cycleMs()
    {
        StreamingOptions tiny;
        tiny.n_vars = kVars;
        tiny.num_requests = 10;
        Rng probe(0);
        return StreamingZkpService(dev_, opt_).run(tiny, probe).cycle_ms;
    }

    StreamingResult
    runAtLoad(double load, StreamingOptions w, uint64_t seed = 3)
    {
        w.n_vars = kVars;
        w.arrival_rate_per_ms = load / cycleMs();
        Rng rng(seed);
        return StreamingZkpService(dev_, opt_).run(w, rng);
    }

    static constexpr unsigned kVars = 16;
    gpusim::Device dev_{gpusim::DeviceSpec::gh200()};
    SystemOptions opt_{};
};

TEST_F(StreamingRobustnessTest, PercentilesAreMonotone)
{
    for (double load : {0.3, 0.8, 1.3}) {
        StreamingOptions w;
        w.num_requests = 2000;
        auto r = runAtLoad(load, w);
        EXPECT_LE(r.p50_ms, r.p90_ms) << "load " << load;
        EXPECT_LE(r.p90_ms, r.p99_ms) << "load " << load;
        EXPECT_LE(r.p99_ms, r.max_ms) << "load " << load;
        EXPECT_GT(r.p50_ms, 0.0) << "load " << load;
    }
}

TEST_F(StreamingRobustnessTest, UnboundedOverloadGrowsTheQueue)
{
    // offered_load > 1 with no guard rails: the queue grows with the
    // run length — the failure mode the shed policy exists to prevent.
    StreamingOptions w;
    w.num_requests = 1000;
    auto small = runAtLoad(2.0, w);
    w.num_requests = 4000;
    auto large = runAtLoad(2.0, w);
    EXPECT_GT(small.offered_load, 1.5);
    EXPECT_GT(large.max_queue, 2 * small.max_queue);
    EXPECT_EQ(small.shed, 0u);
}

TEST_F(StreamingRobustnessTest, ShedPolicyBoundsQueueAtDoubleLoad)
{
    StreamingOptions w;
    w.num_requests = 4000;
    w.queue_capacity = 64;
    auto r = runAtLoad(2.0, w);
    EXPECT_GT(r.offered_load, 1.5);
    EXPECT_GT(r.shed, 0u);
    EXPECT_LE(r.max_queue, 64u);
    // Every request terminates exactly once: proved or shed.
    EXPECT_EQ(r.completed + r.shed, w.num_requests);
    // The pipeline still completes one proof per cycle.
    EXPECT_NEAR(r.throughput_per_ms * r.cycle_ms, 1.0, 0.05);
    // Bounded queue => bounded sojourn: no completed request waited
    // longer than the queue bound plus the pipeline depth.
    double bound =
        (64.0 + 2.0 + static_cast<double>(r.depth)) * r.cycle_ms;
    EXPECT_LE(r.max_ms, bound);
}

TEST_F(StreamingRobustnessTest, TimeoutsFireUnderInjectedStalls)
{
    // Stall the streamed input 6x for a long window mid-run: cycles
    // stretch, requests overstay their admission timeout, retries (with
    // backoff) fire, and the counters record all of it.
    gpusim::FaultPlan plan;
    plan.events.push_back(
        {gpusim::FaultKind::TransferStall, 50, 450, 6.0});
    gpusim::FaultInjector inj(plan, 11);
    dev_.setFaultInjector(&inj);

    StreamingOptions w;
    w.num_requests = 1500;
    double cycle = cycleMs();
    w.timeout_ms = 8.0 * cycle;
    w.max_retries = 2;
    auto r = runAtLoad(0.9, w);
    dev_.setFaultInjector(nullptr);

    EXPECT_GT(r.timed_out, 0u);
    EXPECT_GT(r.retried, 0u);
    EXPECT_LE(r.retried, r.timed_out);
    // completed + shed + permanently dropped covers every request.
    size_t dropped = r.timed_out - r.retried;
    EXPECT_EQ(r.completed + r.shed + dropped, w.num_requests);
    // Completed requests never waited past timeout + pipeline depth
    // (sojourns include the backoff of earlier attempts, bounded by
    // max_retries * (timeout + max backoff)).
    double per_attempt = w.timeout_ms + 4.0 * cycle;
    EXPECT_LE(r.max_ms,
              3.0 * per_attempt +
                  static_cast<double>(r.depth) * cycle + cycle);
}

TEST_F(StreamingRobustnessTest, RetriesEventuallyComplete)
{
    // A brief stall burst with generous retries: some requests time out
    // and re-submit, but nearly everything completes in the end.
    gpusim::FaultPlan plan;
    plan.events.push_back(
        {gpusim::FaultKind::TransferStall, 20, 120, 8.0});
    gpusim::FaultInjector inj(plan, 12);
    dev_.setFaultInjector(&inj);

    StreamingOptions w;
    w.num_requests = 1200;
    double cycle = cycleMs();
    w.timeout_ms = 20.0 * cycle;
    w.max_retries = 8;
    auto r = runAtLoad(0.5, w);
    dev_.setFaultInjector(nullptr);

    EXPECT_GT(r.timed_out, 0u);
    EXPECT_GT(r.completed,
              static_cast<size_t>(0.95 * w.num_requests));
}

TEST_F(StreamingRobustnessTest, UnreachedGuardRailsChangeNothing)
{
    // Robustness options that never trigger must leave every reported
    // quantity bit-identical to the unguarded run.
    StreamingOptions plain;
    plain.num_requests = 1500;
    auto a = runAtLoad(0.8, plain, 5);

    StreamingOptions guarded = plain;
    guarded.timeout_ms = 1e9;
    guarded.max_retries = 3;
    guarded.queue_capacity = 1u << 20;
    auto b = runAtLoad(0.8, guarded, 5);

    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.max_ms, b.max_ms);
    EXPECT_EQ(a.mean_queue, b.mean_queue);
    EXPECT_EQ(a.throughput_per_ms, b.throughput_per_ms);
    EXPECT_EQ(b.timed_out, 0u);
    EXPECT_EQ(b.retried, 0u);
    EXPECT_EQ(b.shed, 0u);
    EXPECT_EQ(b.completed, plain.num_requests);
}

TEST_F(StreamingRobustnessTest, DeterministicUnderFaults)
{
    gpusim::FaultPlan plan;
    plan.events.push_back(
        {gpusim::FaultKind::TransferStall, 10, 200, 4.0});
    plan.events.push_back(
        {gpusim::FaultKind::LaneFailure, 100, 300, 0.2});

    auto once = [&] {
        gpusim::FaultInjector inj(plan, 9);
        dev_.setFaultInjector(&inj);
        StreamingOptions w;
        w.num_requests = 800;
        w.timeout_ms = 10.0 * cycleMs();
        w.max_retries = 1;
        w.queue_capacity = 128;
        auto r = runAtLoad(1.1, w, 13);
        dev_.setFaultInjector(nullptr);
        return r;
    };
    auto a = once();
    auto b = once();
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.retried, b.retried);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.max_queue, b.max_queue);
}

} // namespace
} // namespace bzk
