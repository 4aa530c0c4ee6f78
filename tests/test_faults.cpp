/**
 * @file
 * Tests for the deterministic fault-injection subsystem: plan
 * generation and parsing, injector schedule resolution, the pipelined
 * system's graceful degradation under lane failures, the Merkle root
 * re-check + retry path, and the zero-overhead guarantee of the
 * fault-free default path.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "core/PipelinedSystem.h"
#include "gpusim/Calibration.h"
#include "gpusim/Device.h"
#include "gpusim/FaultInjector.h"

namespace bzk {
namespace {

using gpusim::FaultEvent;
using gpusim::FaultInjector;
using gpusim::FaultKind;
using gpusim::FaultPlan;

TEST(FaultPlan, RandomIsDeterministic)
{
    auto a = FaultPlan::random(42, 200, 0.5);
    auto b = FaultPlan::random(42, 200, 0.5);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a.events, b.events);
    auto c = FaultPlan::random(43, 200, 0.5);
    EXPECT_NE(a.events, c.events);
}

TEST(FaultPlan, RandomRespectsHorizon)
{
    auto plan = FaultPlan::random(7, 128, 1.0);
    EXPECT_LE(plan.horizon(), 128u);
    for (const auto &e : plan.events) {
        EXPECT_LT(e.begin_cycle, e.end_cycle);
        switch (e.kind) {
          case FaultKind::TransferStall:
            EXPECT_GT(e.magnitude, 1.0);
            break;
          case FaultKind::LaneFailure:
            EXPECT_GT(e.magnitude, 0.0);
            EXPECT_LT(e.magnitude, 1.0);
            break;
          case FaultKind::MerkleCorruption:
            EXPECT_GE(e.magnitude, 1.0);
            break;
        }
    }
}

TEST(FaultPlan, EmptyWhenNoIntensity)
{
    EXPECT_TRUE(FaultPlan::random(1, 100, 0.0).empty());
    EXPECT_TRUE(FaultPlan::random(1, 0, 0.5).empty());
}

TEST(FaultPlan, ParsesExplicitSpec)
{
    auto plan =
        FaultPlan::parse("stall:2-6:3.5,lanes:10-20:0.25,corrupt:7:2,"
                         "corrupt:9");
    ASSERT_EQ(plan.events.size(), 4u);
    EXPECT_EQ(plan.events[0],
              (FaultEvent{FaultKind::TransferStall, 2, 6, 3.5}));
    EXPECT_EQ(plan.events[1],
              (FaultEvent{FaultKind::LaneFailure, 10, 20, 0.25}));
    EXPECT_EQ(plan.events[2],
              (FaultEvent{FaultKind::MerkleCorruption, 7, 8, 2.0}));
    EXPECT_EQ(plan.events[3],
              (FaultEvent{FaultKind::MerkleCorruption, 9, 10, 1.0}));
    EXPECT_EQ(plan.horizon(), 20u);
    EXPECT_FALSE(plan.describe().empty());
}

TEST(FaultInjectorTest, ResolvesScheduleByCycle)
{
    auto plan = FaultPlan::parse("stall:2-4:3.0,lanes:3-5:0.2,corrupt:3");
    FaultInjector inj(plan, 1);

    inj.beginCycle(0);
    EXPECT_DOUBLE_EQ(inj.transferStallMultiplier(), 1.0);
    EXPECT_DOUBLE_EQ(inj.failedLaneFraction(), 0.0);
    EXPECT_EQ(inj.corruptionBytes(), 0u);

    inj.beginCycle(2);
    EXPECT_DOUBLE_EQ(inj.transferStallMultiplier(), 3.0);
    EXPECT_DOUBLE_EQ(inj.failedLaneFraction(), 0.0);

    inj.beginCycle(3);
    EXPECT_DOUBLE_EQ(inj.transferStallMultiplier(), 3.0);
    EXPECT_DOUBLE_EQ(inj.failedLaneFraction(), 0.2);
    EXPECT_EQ(inj.corruptionBytes(), 1u);

    inj.beginCycle(4); // stall window is half-open
    EXPECT_DOUBLE_EQ(inj.transferStallMultiplier(), 1.0);
    EXPECT_DOUBLE_EQ(inj.failedLaneFraction(), 0.2);

    EXPECT_EQ(inj.stats().degraded_cycles, 2u);
}

TEST(FaultInjectorTest, OverlappingLaneFailuresClamp)
{
    FaultPlan plan;
    plan.events.push_back({FaultKind::LaneFailure, 0, 10, 0.6});
    plan.events.push_back({FaultKind::LaneFailure, 0, 10, 0.6});
    FaultInjector inj(plan, 1);
    inj.beginCycle(5);
    EXPECT_DOUBLE_EQ(inj.failedLaneFraction(), 0.95);
}

TEST(FaultInjectorTest, CorruptLayerIsDeterministicAndEffective)
{
    auto plan = FaultPlan::parse("corrupt:4:3");
    std::vector<uint8_t> clean(256);
    std::iota(clean.begin(), clean.end(), 0);

    FaultInjector a(plan, 99), b(plan, 99);
    auto da = clean, db = clean;
    a.beginCycle(4);
    b.beginCycle(4);
    EXPECT_TRUE(a.corruptLayer(da));
    EXPECT_TRUE(b.corruptLayer(db));
    EXPECT_NE(da, clean);   // bytes actually flipped
    EXPECT_EQ(da, db);      // ...at seed-determined positions

    // Off-schedule cycles leave the data alone.
    FaultInjector c(plan, 99);
    auto dc = clean;
    c.beginCycle(3);
    EXPECT_FALSE(c.corruptLayer(dc));
    EXPECT_EQ(dc, clean);
}

class SystemFaultsTest : public ::testing::Test
{
  protected:
    SystemRunResult
    run(const FaultPlan *plan, uint64_t seed = 2024,
        size_t functional = 0, gpusim::FaultStats *fault_stats = nullptr)
    {
        gpusim::Device dev(gpusim::DeviceSpec::v100());
        gpusim::FaultInjector inj(plan ? *plan : FaultPlan{}, seed);
        if (plan)
            dev.setFaultInjector(&inj);
        SystemOptions opt;
        opt.functional = functional;
        opt.seed = seed;
        Rng rng(seed);
        auto result =
            PipelinedZkpSystem(dev, opt).run(kBatch, kVars, rng);
        if (fault_stats)
            *fault_stats = inj.stats();
        return result;
    }

    static constexpr size_t kBatch = 48;
    static constexpr unsigned kVars = 10;
};

TEST_F(SystemFaultsTest, SamePlanSameSeedIsBitIdentical)
{
    auto plan = FaultPlan::parse(
        "stall:1-4:2.5,lanes:5-25:0.1,corrupt:8,corrupt:30:2");
    auto a = run(&plan, 7, /*functional=*/1);
    auto b = run(&plan, 7, /*functional=*/1);
    EXPECT_EQ(a.stats.total_ms, b.stats.total_ms);
    EXPECT_EQ(a.stats.throughput_per_ms, b.stats.throughput_per_ms);
    EXPECT_EQ(a.stats.first_latency_ms, b.stats.first_latency_ms);
    EXPECT_EQ(a.degraded_cycles, b.degraded_cycles);
    EXPECT_EQ(a.relocated_lane_fraction, b.relocated_lane_fraction);
    EXPECT_EQ(a.corrupt_detected, b.corrupt_detected);
    EXPECT_EQ(a.retried_tasks, b.retried_tasks);
    EXPECT_EQ(a.cycle_ms, b.cycle_ms);
    ASSERT_EQ(a.proofs.size(), 1u);
    EXPECT_EQ(a.proofs, b.proofs);
}

TEST_F(SystemFaultsTest, DisabledInjectionIsZeroOverhead)
{
    // An attached injector with an empty plan must leave every output
    // bit-identical to a run that never heard of fault injection.
    FaultPlan empty;
    auto with = run(&empty);
    auto without = run(nullptr);
    EXPECT_EQ(with.stats.total_ms, without.stats.total_ms);
    EXPECT_EQ(with.stats.throughput_per_ms,
              without.stats.throughput_per_ms);
    EXPECT_EQ(with.stats.first_latency_ms,
              without.stats.first_latency_ms);
    EXPECT_EQ(with.stats.busy_lane_ms, without.stats.busy_lane_ms);
    EXPECT_EQ(with.stats.peak_device_bytes,
              without.stats.peak_device_bytes);
    EXPECT_EQ(with.cycle_ms, without.cycle_ms);
    EXPECT_EQ(with.degraded_cycles, 0u);
    EXPECT_EQ(with.corrupt_detected, 0u);
    EXPECT_EQ(with.retried_tasks, 0u);
    EXPECT_EQ(with.relocated_lane_fraction, 0.0);
}

TEST_F(SystemFaultsTest, DefaultPathRegressionPin)
{
    // Pin the fault-free cycle model for a fixed seed: cycle_ms must
    // equal the closed-form work-model prediction, so refactors of the
    // fault paths cannot silently perturb the seed behavior.
    auto r = run(nullptr, 2024);
    gpusim::Device dev(gpusim::DeviceSpec::v100());
    auto model = systemWorkModel(kVars, 2024);
    double cores = dev.spec().cuda_cores;
    double comp_ms =
        model.totalCycles() / (cores * dev.spec().cyclesPerMs()) +
        gpusim::kKernelLaunchMs;
    double expected_cycle =
        std::max(comp_ms, dev.copyDurationMs(model.h2d_bytes));
    EXPECT_DOUBLE_EQ(r.cycle_ms, expected_cycle);
    EXPECT_DOUBLE_EQ(r.comp_ms_per_cycle, comp_ms);
    EXPECT_EQ(r.stats.batch, kBatch);
}

TEST_F(SystemFaultsTest, LaneFailureDegradesGracefully)
{
    // 10% of the lanes down for the whole run: every cycle is degraded,
    // the split re-allocates onto the 90% survivors, the run slows by
    // at most 1/0.9, and the functional proofs still verify.
    size_t horizon = kBatch + systemWorkModel(kVars, 2024).totalStages();
    FaultPlan plan;
    plan.events.push_back(
        {FaultKind::LaneFailure, 0, horizon, 0.1});
    auto healthy = run(nullptr, 2024, /*functional=*/2);
    auto degraded = run(&plan, 2024, /*functional=*/2);

    EXPECT_TRUE(degraded.verified);
    EXPECT_EQ(degraded.proofs.size(), 2u);
    EXPECT_GT(degraded.degraded_cycles, 0u);
    EXPECT_NEAR(degraded.relocated_lane_fraction, 0.1, 1e-12);
    EXPECT_GT(degraded.stats.total_ms, healthy.stats.total_ms);
    // Compute stretches by exactly 1/0.9; the cycle stretches by at
    // most that (transfer legs are unaffected and multi-stream overlap
    // can hide part of the compute stretch behind them).
    EXPECT_LE(degraded.stats.total_ms,
              healthy.stats.total_ms / 0.9 +
                  1e-9 * healthy.stats.total_ms);
    EXPECT_LT(degraded.stats.throughput_per_ms,
              healthy.stats.throughput_per_ms);
}

TEST_F(SystemFaultsTest, CorruptedLayerDetectedAndRetried)
{
    auto plan = FaultPlan::parse("corrupt:3,corrupt:11:2,corrupt:20");
    auto healthy = run(nullptr);
    auto faulted = run(&plan, 2024, /*functional=*/1);

    // Every scheduled corruption lands on an admitted task, is caught
    // by the root re-check, and costs exactly one retry cycle — no
    // invalid proof escapes.
    EXPECT_EQ(faulted.corrupt_detected, 3u);
    EXPECT_EQ(faulted.retried_tasks, 3u);
    EXPECT_TRUE(faulted.verified);
    EXPECT_GT(faulted.stats.total_ms, healthy.stats.total_ms);
    EXPECT_EQ(faulted.stats.batch, kBatch); // retries re-run tasks,
                                            // they do not add proofs
}

TEST_F(SystemFaultsTest, TransferStallsSlowTheStream)
{
    size_t horizon = kBatch + systemWorkModel(kVars, 2024).totalStages();
    FaultPlan plan;
    plan.events.push_back(
        {FaultKind::TransferStall, 0, horizon, 50.0});
    gpusim::FaultStats stats;
    auto healthy = run(nullptr);
    auto stalled = run(&plan, 2024, 0, &stats);
    EXPECT_GT(stats.stalled_transfers, 0u);
    EXPECT_GT(stalled.stats.total_ms, healthy.stats.total_ms);
}

TEST_F(SystemFaultsTest, RandomPlanStillVerifies)
{
    size_t horizon = kBatch + systemWorkModel(kVars, 2024).totalStages();
    auto plan = FaultPlan::random(5, horizon, 0.6);
    auto r = run(&plan, 2024, /*functional=*/2);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.degraded_cycles + r.corrupt_detected, 0u);
}

} // namespace
} // namespace bzk
