/**
 * @file
 * Parameterized property sweeps across sizes and seeds: protocol
 * completeness at every size, code linearity, scheduling invariants of
 * the GPU simulator, and pipeline-dominance properties of the cost
 * model.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include <unistd.h>

#include "core/DurableService.h"
#include "core/TensorPcs.h"
#include "obs/Metrics.h"
#include "encoder/SpielmanCode.h"
#include "ff/Fields.h"
#include "gpusim/Device.h"
#include "merkle/GpuMerkle.h"
#include "merkle/MerkleTree.h"
#include "poly/Multilinear.h"
#include "sumcheck/GpuSumcheck.h"
#include "sumcheck/Sumcheck.h"

namespace bzk {
namespace {

/** Sum-check completeness for every variable count 1..12. */
class SumcheckSizeSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SumcheckSizeSweep, CompletenessHoldsAtEverySize)
{
    unsigned n = GetParam();
    Rng rng(1000 + n);
    auto poly = Multilinear<Fr>::random(n, rng);
    Fr sum = poly.sumOverHypercube();
    Transcript pt("sweep");
    pt.absorbField("sum", sum);
    auto fs = proveSumcheckFs(poly, pt);
    Transcript vt("sweep");
    vt.absorbField("sum", sum);
    auto verdict = verifySumcheckFs(sum, fs.proof, vt);
    ASSERT_TRUE(verdict.ok);
    EXPECT_EQ(verdict.final_claim, poly.evaluate(verdict.point));
}

INSTANTIATE_TEST_SUITE_P(Vars1To12, SumcheckSizeSweep,
                         ::testing::Range(1u, 13u));

/** PCS round trips for every supported size 6..12. */
class PcsSizeSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PcsSizeSweep, OpenVerifyAtEverySize)
{
    unsigned n = GetParam();
    Rng rng(2000 + n);
    TensorPcs<Fr> pcs(n, 42);
    std::vector<Fr> poly(size_t{1} << n);
    for (auto &p : poly)
        p = Fr::random(rng);
    PcsProverState<Fr> state;
    pcs.commit(poly, state);
    std::vector<Fr> point(n);
    for (auto &p : point)
        p = Fr::random(rng);
    Fr value = evaluateTable(poly, point);

    Transcript pt("sweep");
    pt.absorbDigest("root", state.commitment.root);
    auto proof = pcs.open(state, pcs.evalRow(state, point), pt);
    Transcript vt("sweep");
    vt.absorbDigest("root", state.commitment.root);
    EXPECT_TRUE(pcs.verify(state.commitment, point, value, proof, vt));
}

INSTANTIATE_TEST_SUITE_P(Vars6To12, PcsSizeSweep,
                         ::testing::Range(6u, 13u));

/** Encoder linearity and systematicity across message lengths. */
class EncoderSizeSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EncoderSizeSweep, LinearAndSystematicAtEverySize)
{
    size_t k = size_t{1} << GetParam();
    Rng rng(3000 + GetParam());
    SpielmanCode<Fr> code(k, 7);
    std::vector<Fr> x(k), y(k), combo(k);
    Fr a = Fr::random(rng), b = Fr::random(rng);
    for (size_t i = 0; i < k; ++i) {
        x[i] = Fr::random(rng);
        y[i] = Fr::random(rng);
        combo[i] = a * x[i] + b * y[i];
    }
    auto ex = code.encode(x);
    auto ey = code.encode(y);
    auto ec = code.encode(combo);
    ASSERT_EQ(ec.size(), 2 * k);
    for (size_t i = 0; i < 2 * k; ++i)
        EXPECT_EQ(ec[i], a * ex[i] + b * ey[i]) << i;
    for (size_t i = 0; i < k; ++i)
        EXPECT_EQ(ex[i], x[i]);
}

INSTANTIATE_TEST_SUITE_P(K32To4096, EncoderSizeSweep,
                         ::testing::Range(5u, 13u));

/** Merkle hash-count invariant (2N-1) across sizes. */
class MerkleSizeSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MerkleSizeSweep, CompressionCountAndPathsAtEverySize)
{
    size_t n = size_t{1} << GetParam();
    std::vector<uint8_t> data(64 * n);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 7 + GetParam());
    MerkleTree t = MerkleTree::build(data);
    EXPECT_EQ(t.compressions(), 2 * n - 1);
    // A few inclusion proofs per size.
    for (size_t leaf : {size_t{0}, n / 2, n - 1}) {
        auto p = t.path(leaf);
        EXPECT_EQ(p.siblings.size(), static_cast<size_t>(GetParam()));
        EXPECT_TRUE(MerkleTree::verifyPath(t.root(), t.leaf(leaf), p));
    }
}

INSTANTIATE_TEST_SUITE_P(N2To1024, MerkleSizeSweep,
                         ::testing::Range(1u, 11u));

/**
 * GPU simulator invariants under random op soups: lane capacity is
 * never exceeded, streams stay ordered, utilization stays in [0, 1].
 */
class SchedulerFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SchedulerFuzz, InvariantsHoldOnRandomWorkloads)
{
    Rng rng(GetParam());
    gpusim::DeviceSpec spec;
    spec.name = "fuzz";
    spec.cuda_cores = 128;
    spec.clock_ghz = 1.0;
    spec.mem_bw_gbps = 50.0;
    spec.link_gbps = 5.0;
    spec.device_mem_bytes = 1 << 30;
    gpusim::Device dev(spec);

    std::vector<gpusim::StreamId> streams;
    for (int i = 0; i < 4; ++i)
        streams.push_back(dev.createStream());

    std::map<gpusim::StreamId, double> last_end;
    std::vector<gpusim::OpId> ops;
    for (int i = 0; i < 120; ++i) {
        auto s = streams[rng.nextBounded(streams.size())];
        gpusim::OpId dep = gpusim::kNoOp;
        if (!ops.empty() && rng.nextBounded(4) == 0)
            dep = ops[rng.nextBounded(ops.size())];
        gpusim::OpId op;
        switch (rng.nextBounded(3)) {
          case 0: {
            gpusim::KernelDesc k;
            k.name = "fuzz";
            k.lanes = 16.0 + static_cast<double>(rng.nextBounded(160));
            k.threads = 1 + rng.nextBounded(400);
            k.cycles_per_thread = 100.0 + rng.nextBounded(100000);
            op = dev.launchKernel(s, k, dep);
            break;
          }
          case 1:
            op = dev.copyH2D(s, 1 + rng.nextBounded(1 << 22), dep);
            break;
          default:
            op = dev.copyD2H(s, 1 + rng.nextBounded(1 << 22), dep);
        }
        // Stream ordering.
        EXPECT_GE(dev.opStart(op) + 1e-9, last_end[s]) << "op " << i;
        last_end[s] = dev.opEnd(op);
        // Dependency ordering.
        if (dep != gpusim::kNoOp) {
            EXPECT_GE(dev.opStart(op) + 1e-9, dev.opEnd(dep));
        }
        ops.push_back(op);
    }

    // Lane capacity: at every kernel start, total reserved lanes of
    // overlapping kernels stays within the device.
    const auto &records = dev.ops();
    for (const auto &probe : records) {
        if (probe.kind != gpusim::OpRecord::Kind::Kernel)
            continue;
        double t = probe.start_ms + 1e-9;
        double used = 0.0;
        for (const auto &other : records) {
            if (other.kind != gpusim::OpRecord::Kind::Kernel)
                continue;
            if (other.start_ms <= t && t < other.end_ms)
                used += other.lanes;
        }
        EXPECT_LE(used, spec.cuda_cores + 1e-6);
    }

    // Utilization bounded.
    for (const auto &sample : dev.utilizationTrace(dev.now() / 50.0)) {
        EXPECT_GE(sample.utilization, -1e-9);
        EXPECT_LE(sample.utilization, 1.0 + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u,
                                           77u, 88u));

/**
 * Pipeline dominance: across a size sweep, the pipelined Merkle and
 * sum-check drivers never lose to the intuitive ones on throughput,
 * and never win on first-item latency.
 */
class PipelineDominance : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PipelineDominance, MerkleThroughputAndLatencyOrdering)
{
    unsigned logn = GetParam();
    gpusim::Device dev(gpusim::DeviceSpec::a100());
    Rng rng(1);
    GpuMerkleOptions opt;
    opt.functional = 0;
    auto pipe =
        PipelinedMerkleGpu(dev, opt).run(128, size_t{1} << logn, rng);
    auto base =
        IntuitiveMerkleGpu(dev, opt).run(32, size_t{1} << logn, rng);
    EXPECT_GE(pipe.throughput_per_ms, base.throughput_per_ms);
    // The latency penalty of pipelining (Table 6) only bites once tree
    // work dwarfs the baseline's per-layer host-sync overhead; below
    // ~2^16 blocks the intuitive scheme is sync-bound and can be slower
    // on latency too.
    if (logn >= 16) {
        EXPECT_GE(pipe.first_latency_ms, base.first_latency_ms * 0.99);
    }
}

TEST_P(PipelineDominance, SumcheckThroughputOrdering)
{
    unsigned n = GetParam();
    gpusim::Device dev(gpusim::DeviceSpec::a100());
    Rng rng(2);
    GpuSumcheckOptions opt;
    opt.functional = 0;
    auto pipe = PipelinedSumcheckGpu(dev, opt).run(128, n, rng);
    auto base = IntuitiveSumcheckGpu(dev, opt).run(32, n, rng);
    EXPECT_GE(pipe.throughput_per_ms, base.throughput_per_ms);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PipelineDominance,
                         ::testing::Values(10u, 12u, 14u, 16u, 18u, 20u));

/**
 * Idempotency of the durable proof service: for random task mixes with
 * duplicate submissions, a crash, and a double replay, every unique
 * task id ends with exactly one proof, and every absorbed duplicate is
 * counted in bzk_journal_duplicates_total.
 */
class DurableIdempotency : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DurableIdempotency, DuplicatesAndDoubleReplayYieldOneProof)
{
    uint64_t seed = GetParam();
    Rng rng(seed);
    char tmpl[] = "/tmp/bzk_idem_XXXXXX";
    std::string dir = ::mkdtemp(tmpl);

    // Random mix: 3-5 unique tasks, sizes 8-9, random priorities,
    // random protocol kinds (the journal carries the kind, so replay
    // and idempotency hold identically for both protocols).
    size_t unique = 3 + rng.nextBounded(3);
    std::vector<DurableTaskSpec> specs;
    for (size_t i = 0; i < unique; ++i) {
        DurableTaskSpec spec;
        spec.id = 500 + i;
        spec.n_vars = 8 + static_cast<unsigned>(rng.nextBounded(2));
        spec.seed = seed;
        spec.priority = static_cast<int>(rng.nextBounded(4));
        spec.kind = rng.nextBounded(2)
                        ? sched::ProtocolKind::HighDegreeGate
                        : sched::ProtocolKind::TableCommit;
        specs.push_back(spec);
    }
    // Interleave duplicates: every submission after the first of an id
    // must be absorbed, not journaled as new work.
    std::vector<DurableTaskSpec> submissions = specs;
    size_t duplicates = 1 + rng.nextBounded(4);
    for (size_t i = 0; i < duplicates; ++i)
        submissions.push_back(specs[rng.nextBounded(specs.size())]);
    for (size_t i = submissions.size(); i > 1; --i)
        std::swap(submissions[i - 1],
                  submissions[rng.nextBounded(i)]);

    obs::MetricsRegistry metrics;
    size_t absorbed_at_submit = 0;
    {
        DurableProofService service({dir}, &metrics);
        for (const auto &spec : submissions)
            if (!service.submit(spec))
                ++absorbed_at_submit;
        EXPECT_EQ(service.pendingCount(), unique);
        EXPECT_EQ(absorbed_at_submit, submissions.size() - unique);
        EXPECT_EQ(
            metrics.counter("bzk_journal_duplicates_total").value(),
            static_cast<double>(absorbed_at_submit));
        // Crash at a random stage boundary of a random victim task.
        uint64_t victim = specs[rng.nextBounded(specs.size())].id;
        auto stage = static_cast<ProveStage>(rng.nextBounded(4));
        service.processAll([&](uint64_t task_id, ProveStage at) {
            return !(task_id == victim && at == stage);
        });
    }

    // Double replay: restart once, re-submit the same mix (every one
    // is now a duplicate of a pending or completed task), restart
    // again without processing in between.
    {
        DurableProofService service({dir});
        for (const auto &spec : submissions)
            EXPECT_FALSE(service.submit(spec));
    }
    DurableProofService service({dir});
    EXPECT_EQ(service.pendingCount() + service.proofs().size(), unique);
    service.processAll();
    EXPECT_EQ(service.pendingCount(), 0u);
    EXPECT_EQ(service.proofs().size(), unique);
    EXPECT_TRUE(service.verifyAll());

    for (uint64_t i = 1; i <= 16; ++i)
        ::unlink(journal::Journal::segmentPath(dir, i).c_str());
    ::rmdir(dir.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DurableIdempotency,
                         ::testing::Range<uint64_t>(1, 5));

TEST(DurableMixedBatch, ProcessesAndVerifiesBothKinds)
{
    char tmpl[] = "/tmp/bzk_mixed_XXXXXX";
    std::string dir = ::mkdtemp(tmpl);
    obs::MetricsRegistry metrics;
    {
        DurableProofService service({dir}, &metrics);
        for (uint64_t i = 0; i < 4; ++i) {
            DurableTaskSpec spec;
            spec.id = 600 + i;
            spec.n_vars = 8;
            spec.seed = 42;
            spec.kind = (i % 2)
                            ? sched::ProtocolKind::HighDegreeGate
                            : sched::ProtocolKind::TableCommit;
            ASSERT_TRUE(service.submit(spec));
        }
        EXPECT_EQ(service.processAll(), 4u);
        // verifyAll dispatches on each blob's own serialization tag.
        EXPECT_TRUE(service.verifyAll());
        ASSERT_EQ(service.proofs().size(), 4u);
        for (const auto &[id, completion] : service.proofs()) {
            ASSERT_FALSE(completion.proof.empty());
            // Tag 0x01 = Snark (table-commit), 0x04 = high-degree.
            EXPECT_EQ(completion.proof[0],
                      (id % 2) ? 0x04 : 0x01)
                << "task " << id;
        }
        EXPECT_DOUBLE_EQ(
            metrics
                .counter(
                    "bzk_journal_proofs_completed_table_commit_total")
                .value(),
            2.0);
        EXPECT_DOUBLE_EQ(
            metrics
                .counter("bzk_journal_proofs_completed_high_degree_"
                         "gate_total")
                .value(),
            2.0);
    }

    // A restart on the same journal restores both kinds' proofs and
    // still verifies them.
    DurableProofService restarted({dir});
    EXPECT_EQ(restarted.recovery().proofs_restored, 4u);
    EXPECT_EQ(restarted.pendingCount(), 0u);
    EXPECT_TRUE(restarted.verifyAll());

    for (uint64_t i = 1; i <= 16; ++i)
        ::unlink(journal::Journal::segmentPath(dir, i).c_str());
    ::rmdir(dir.c_str());
}

} // namespace
} // namespace bzk
