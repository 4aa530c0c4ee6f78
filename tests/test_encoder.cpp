/**
 * @file
 * Tests for the linear-time encoder: topology determinism, sparse
 * matrices, encoding linearity/systematicity, and the GPU drivers
 * (including the bucket-sort warp-balancing effect).
 */

#include <gtest/gtest.h>

#include <thread>

#include "core/TensorPcs.h"
#include "encoder/GpuEncoder.h"
#include "encoder/SparseMatrix.h"
#include "encoder/SpielmanCode.h"
#include "encoder/Topology.h"
#include "ff/FieldBackend.h"
#include "ff/Fields.h"
#include "gpusim/Device.h"
#include "hash/Sha256.h"

namespace bzk {
namespace {

TEST(Topology, Deterministic)
{
    EncoderTopology a(1 << 10, 42), b(1 << 10, 42);
    ASSERT_EQ(a.levels().size(), b.levels().size());
    for (size_t l = 0; l < a.levels().size(); ++l) {
        EXPECT_EQ(a.levels()[l].a_degrees, b.levels()[l].a_degrees);
        EXPECT_EQ(a.levels()[l].b_degrees, b.levels()[l].b_degrees);
    }
    EXPECT_EQ(a.seedA(0), b.seedA(0));
    EXPECT_EQ(a.seedBase(), b.seedBase());
}

TEST(Topology, SeedsDiffer)
{
    EncoderTopology a(1 << 10, 1), b(1 << 10, 2);
    EXPECT_NE(a.seedA(0), b.seedA(0));
    EXPECT_NE(a.levels()[0].a_degrees, b.levels()[0].a_degrees);
}

TEST(Topology, LevelShapes)
{
    size_t k = 1 << 12;
    EncoderTopology topo(k, 7);
    size_t cur = k;
    for (const auto &level : topo.levels()) {
        EXPECT_EQ(level.k, cur);
        EXPECT_EQ(level.a_degrees.size(), cur / 4);
        EXPECT_EQ(level.b_degrees.size(), cur / 2);
        cur /= 4;
    }
    EXPECT_LE(topo.baseSize(), kEncoderBaseSize);
    EXPECT_EQ(topo.codewordLength(), 2 * k);
}

TEST(Topology, DegreesWithinBuckets)
{
    EncoderTopology topo(1 << 10, 9);
    for (const auto &level : topo.levels()) {
        for (uint8_t d : level.a_degrees) {
            EXPECT_GE(d, kEncoderDegreeA / 2 + 1);
            EXPECT_LE(d, 3 * kEncoderDegreeA / 2);
        }
        for (uint8_t d : level.b_degrees) {
            EXPECT_GE(d, kEncoderDegreeB / 2 + 1);
            EXPECT_LE(d, 3 * kEncoderDegreeB / 2);
        }
    }
}

TEST(SparseMatrix, ShapeAndNnz)
{
    Rng rng(3);
    std::vector<uint8_t> degrees{2, 3, 1};
    SparseMatrix<Fr> m(degrees, 10, rng);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 10u);
    EXPECT_EQ(m.nnz(), 6u);
}

TEST(SparseMatrix, MulVecLinear)
{
    Rng rng(4);
    std::vector<uint8_t> degrees(16, 5);
    SparseMatrix<Fr> m(degrees, 32, rng);
    std::vector<Fr> x(32), y(32);
    for (auto &v : x)
        v = Fr::random(rng);
    for (auto &v : y)
        v = Fr::random(rng);
    Fr a = Fr::random(rng), b = Fr::random(rng);

    std::vector<Fr> combo(32);
    for (size_t i = 0; i < 32; ++i)
        combo[i] = a * x[i] + b * y[i];

    std::vector<Fr> mx(16), my(16), mc(16);
    m.mulVec(x, mx);
    m.mulVec(y, my);
    m.mulVec(combo, mc);
    for (size_t i = 0; i < 16; ++i)
        EXPECT_EQ(mc[i], a * mx[i] + b * my[i]);
}

TEST(SparseMatrix, ZeroInZeroOut)
{
    Rng rng(5);
    std::vector<uint8_t> degrees(8, 4);
    SparseMatrix<Fr> m(degrees, 16, rng);
    std::vector<Fr> x(16, Fr::zero()), out(8);
    m.mulVec(x, out);
    for (const auto &v : out)
        EXPECT_TRUE(v.isZero());
}

template <typename F>
class SpielmanT : public ::testing::Test
{
};

using Fields = ::testing::Types<Fr>;
TYPED_TEST_SUITE(SpielmanT, Fields);

TYPED_TEST(SpielmanT, CodewordLengthIsRateHalf)
{
    using F = TypeParam;
    for (size_t k : {32u, 128u, 1024u}) {
        SpielmanCode<F> code(k, 11);
        Rng rng(6);
        std::vector<F> msg(k);
        for (auto &m : msg)
            m = F::random(rng);
        EXPECT_EQ(code.encode(msg).size(), 2 * k) << "k=" << k;
    }
}

TYPED_TEST(SpielmanT, Systematic)
{
    // The message appears verbatim as the codeword prefix.
    using F = TypeParam;
    size_t k = 256;
    SpielmanCode<F> code(k, 12);
    Rng rng(7);
    std::vector<F> msg(k);
    for (auto &m : msg)
        m = F::random(rng);
    auto cw = code.encode(msg);
    for (size_t i = 0; i < k; ++i)
        EXPECT_EQ(cw[i], msg[i]);
}

TYPED_TEST(SpielmanT, Linear)
{
    // E(a*x + b*y) == a*E(x) + b*E(y): the property the SNARK's
    // proximity test relies on.
    using F = TypeParam;
    size_t k = 512;
    SpielmanCode<F> code(k, 13);
    Rng rng(8);
    std::vector<F> x(k), y(k), combo(k);
    F a = F::random(rng), b = F::random(rng);
    for (size_t i = 0; i < k; ++i) {
        x[i] = F::random(rng);
        y[i] = F::random(rng);
        combo[i] = a * x[i] + b * y[i];
    }
    auto ex = code.encode(x);
    auto ey = code.encode(y);
    auto ec = code.encode(combo);
    for (size_t i = 0; i < 2 * k; ++i)
        EXPECT_EQ(ec[i], a * ex[i] + b * ey[i]);
}

TYPED_TEST(SpielmanT, Deterministic)
{
    using F = TypeParam;
    size_t k = 128;
    SpielmanCode<F> c1(k, 14), c2(k, 14);
    Rng rng(9);
    std::vector<F> msg(k);
    for (auto &m : msg)
        m = F::random(rng);
    EXPECT_EQ(c1.encode(msg), c2.encode(msg));
}

TYPED_TEST(SpielmanT, CodewordBitIdenticalAcrossThreadCounts)
{
    // The row-grouped parallel sparse stages write disjoint outputs,
    // so the codeword must not depend on the thread count — including
    // small codes that fall under the serial cutoff.
    using F = TypeParam;
    Rng rng(91);
    size_t hw = std::thread::hardware_concurrency();
    for (size_t k : {size_t{64}, size_t{1024}}) {
        SpielmanCode<F> code(k, 23);
        std::vector<F> msg(k);
        for (auto &m : msg)
            m = F::random(rng);
        auto serial = code.encode(msg);
        for (size_t threads :
             {size_t{1}, size_t{2}, hw ? hw : size_t{4}}) {
            exec::ExecConfig cfg;
            cfg.threads = threads;
            exec::ExecContext exec(cfg);
            EXPECT_EQ(code.encode(msg, &exec), serial)
                << "k=" << k << " threads=" << threads;
        }
    }
}

TEST(SparseMatrix, MulVecParallelMatchesSerial)
{
    Rng rng(92);
    std::vector<uint8_t> degrees(301);
    for (auto &d : degrees)
        d = static_cast<uint8_t>(1 + rng.nextBounded(9));
    SparseMatrix<Fr> m(degrees, /*cols=*/257, rng);
    std::vector<Fr> x(257);
    for (auto &v : x)
        v = Fr::random(rng);
    std::vector<Fr> serial(m.rows());
    m.mulVec(x, serial);

    // Enough non-zeros for the grouped parallel path.
    ASSERT_GE(m.nnz(), exec::kSerialCutoff);
    exec::ExecConfig cfg;
    cfg.threads = 4;
    exec::ExecContext exec(cfg);
    std::vector<Fr> parallel(m.rows());
    m.mulVec(x, parallel, &exec);
    EXPECT_EQ(parallel, serial);
}

TYPED_TEST(SpielmanT, DistinctMessagesDistinctCodewords)
{
    using F = TypeParam;
    size_t k = 128;
    SpielmanCode<F> code(k, 15);
    Rng rng(10);
    std::vector<F> msg(k);
    for (auto &m : msg)
        m = F::random(rng);
    auto cw1 = code.encode(msg);
    msg[5] += F::one();
    auto cw2 = code.encode(msg);
    EXPECT_NE(cw1, cw2);
}

TYPED_TEST(SpielmanT, EncodeIntoWritesExactlyTheCodeword)
{
    // encodeInto fills exactly its 2k-element window, in place, with
    // the same codeword encode() returns; guard cells on both sides
    // stay untouched.
    using F = TypeParam;
    for (size_t k : {size_t{32}, size_t{256}, size_t{1024}}) {
        SpielmanCode<F> code(k, 24);
        Rng rng(93);
        std::vector<F> msg(k);
        for (auto &m : msg)
            m = F::random(rng);
        const F guard = F::fromUint(0xabcdef);
        std::vector<F> buf(2 * k + 2, guard);
        code.encodeInto(msg, std::span<F>(buf.data() + 1, 2 * k));
        EXPECT_EQ(buf.front(), guard) << "k=" << k;
        EXPECT_EQ(buf.back(), guard) << "k=" << k;
        EXPECT_EQ(std::vector<F>(buf.begin() + 1, buf.end() - 1),
                  code.encode(msg))
            << "k=" << k;
    }
}

/**
 * A k x m table whose rows exercise the canonical load: random rows,
 * and rows of the values 0, 1, p - 1, 2^256 - 1 mod p and values just
 * below p, of the element whose Montgomery limbs are p - 1 and of the
 * one whose limbs are 1.
 */
std::vector<Fr>
edgeRowTable(size_t k, size_t m, Rng &rng)
{
    const U256 p = Fr::kModulus;
    uint64_t borrow = 0;
    const U256 p_minus_1 = subBorrow(p, U256{1}, borrow);
    // fromU256(R mod p) is R; its inverse has Montgomery limbs 1.
    const Fr limbs_one = Fr::fromU256(Fr::one().montRaw()).inverse();
    const Fr edges[] = {
        Fr::zero(),
        Fr::one(),
        Fr::fromU256(p_minus_1),
        Fr::fromU256(U256{~0ULL, ~0ULL, ~0ULL, ~0ULL}),
        -limbs_one,
        limbs_one,
    };
    constexpr size_t kEdges = sizeof(edges) / sizeof(edges[0]);
    std::vector<Fr> table(k * m);
    for (size_t row = 0; row < k; ++row) {
        for (size_t i = 0; i < m; ++i) {
            Fr &x = table[row * m + i];
            switch (row % (kEdges + 2)) {
              case kEdges:
                x = Fr::random(rng);
                break;
              case kEdges + 1: // p - 1 - i: just below p
                x = Fr::fromU256(subBorrow(p_minus_1, U256{i}, borrow));
                break;
              default:
                x = edges[row % (kEdges + 2)];
            }
        }
    }
    // With k < kEdges + 2 the random row may be missing: add noise.
    if (k < kEdges + 2)
        table[0] = Fr::random(rng);
    return table;
}

/**
 * encodeRows under @p backend equals the canonical form of encode() on
 * every row, for the PCS's table shapes at n_vars 6 to 16 (k = 2 to
 * 256 rows, so k < 8 runs per row under either backend).
 */
void
expectEncodeRowsIsRedcOfEncode(ff::Backend backend)
{
    ff::forceBackend(backend);
    Rng rng(0xb47c4);
    for (unsigned n_vars = 6; n_vars <= 16; ++n_vars) {
        const size_t m = size_t{1} << TensorPcs<Fr>::colVarsFor(n_vars);
        const size_t k = (size_t{1} << n_vars) / m;
        for (uint64_t seed : {3u, 0xc0ffeeu}) {
            SpielmanCode<Fr> code(m, seed);
            auto table = edgeRowTable(k, m, rng);
            std::vector<U256> matrix(k * 2 * m);
            code.encodeRows(table, matrix);
            size_t mismatches = 0;
            for (size_t row = 0; row < k; ++row) {
                auto cw = code.encode(
                    std::span<const Fr>(table.data() + row * m, m));
                for (size_t i = 0; i < 2 * m; ++i)
                    mismatches += cw[i].toU256() != matrix[row * 2 * m + i];
            }
            EXPECT_EQ(mismatches, 0u) << ff::backendName(backend)
                                      << " n_vars=" << n_vars
                                      << " seed=" << seed;
        }
    }
    ff::clearForcedBackend();
}

TEST(EncodeRows, PerRowPathIsRedcOfEncode)
{
    expectEncodeRowsIsRedcOfEncode(ff::Backend::kScalar);
}

TEST(EncodeRows, IfmaBatchIsRedcOfEncode)
{
    if (!ff::backendAvailable(ff::Backend::kIfma))
        GTEST_SKIP() << "this host has no AVX-512 IFMA";
    expectEncodeRowsIsRedcOfEncode(ff::Backend::kIfma);
}

TEST(EncodeRows, SlotsOnAPoolMatchSerial)
{
    // One slot per thread, each taking the next batch: any split of
    // the batches stores the same matrix, on either backend.
    Rng rng(0x5107);
    const size_t m = 64, k = 72; // 9 batches over 2, 3 and 4 slots
    SpielmanCode<Fr> code(m, 17);
    auto table = edgeRowTable(k, m, rng);
    std::vector<U256> serial(k * 2 * m);
    code.encodeRows(table, serial);
    for (size_t threads : {size_t{2}, size_t{3}, size_t{4}}) {
        exec::ExecConfig cfg;
        cfg.threads = threads;
        exec::ExecContext exec(cfg);
        std::vector<U256> pooled(k * 2 * m);
        code.encodeRows(table, pooled, &exec);
        EXPECT_EQ(pooled, serial) << "threads=" << threads;
        EXPECT_EQ(exec.stats("encoder").calls, 1u) << "threads=" << threads;
    }
}

/**
 * SHA-256 of the codeword bytes for a fixed seed and message: pins
 * SpielmanCode's output across encoder refactors for both field sizes.
 */
template <typename F>
std::string
codewordSha256(size_t k)
{
    SpielmanCode<F> code(k, /*seed=*/0x60d5eed);
    Rng rng(0xc0de0000 + k);
    std::vector<F> msg(k);
    for (auto &m : msg)
        m = F::random(rng);
    auto cw = code.encode(msg);
    std::vector<uint8_t> bytes(cw.size() * F::kNumBytes);
    for (size_t i = 0; i < cw.size(); ++i)
        cw[i].toBytes(bytes.data() + i * F::kNumBytes);
    return Sha256::digest(bytes).toHex();
}

// k = 2^5 is the dense base case alone; 2^8 and 2^10 add two and three
// sparse levels.
TEST(EncoderGolden, FrCodewords)
{
    EXPECT_EQ(codewordSha256<Fr>(1 << 5),
              "9998c87c300e9e61c210c7a84a5e80bd"
              "44bfb392c8880b4ff050827f8318b2a6");
    EXPECT_EQ(codewordSha256<Fr>(1 << 8),
              "2a290a90f07df992b77fc823d2653de8"
              "044b7c60fafc8d75110138fca6ff47a2");
    EXPECT_EQ(codewordSha256<Fr>(1 << 10),
              "9529287616c07677c72bd6e89e725879"
              "0213c9484aee042517ed4412d9732938");
}

TEST(EncoderStageCosts, SortedNeverWorse)
{
    EncoderTopology topo(1 << 12, 16);
    for (const auto &s : encoderStageCosts(topo))
        EXPECT_LE(s.lane_cycles_sorted, s.lane_cycles_unsorted + 1e-9);
}

TEST(EncoderStageCosts, SortingHelpsOnSparseStages)
{
    // With degrees spread over [mean/2+1, 3mean/2], natural warp groups
    // pay close to the max degree; sorted groups pay close to the mean.
    EncoderTopology topo(1 << 14, 17);
    auto stages = encoderStageCosts(topo);
    double sorted = 0, unsorted = 0;
    for (const auto &s : stages) {
        sorted += s.lane_cycles_sorted;
        unsorted += s.lane_cycles_unsorted;
    }
    EXPECT_LT(sorted, unsorted * 0.92);
}

TEST(EncoderStageCosts, StageCountIsTwoDepthPlusOne)
{
    EncoderTopology topo(1 << 12, 18);
    auto stages = encoderStageCosts(topo);
    EXPECT_EQ(stages.size(), 2 * topo.levels().size() + 1);
}

class GpuEncoderTest : public ::testing::Test
{
  protected:
    gpusim::Device dev_{gpusim::DeviceSpec::v100()};
};

TEST_F(GpuEncoderTest, FunctionalCodewordsMatchReference)
{
    GpuEncoderOptions opt;
    opt.functional = 2;
    Rng rng1(20), rng2(20);
    std::vector<std::vector<Fr>> gpu_codes;
    PipelinedEncoderGpu(dev_, opt).run(4, 1 << 8, rng1, &gpu_codes);
    ASSERT_EQ(gpu_codes.size(), 2u);

    SpielmanCode<Fr> code(1 << 8, 0xbadc0de5 + (1 << 8));
    for (size_t i = 0; i < 2; ++i) {
        std::vector<Fr> msg(1 << 8);
        for (auto &m : msg)
            m = Fr::random(rng2);
        EXPECT_EQ(gpu_codes[i], code.encode(msg));
    }
}

TEST_F(GpuEncoderTest, PipelinedBeatsNonPipelined)
{
    GpuEncoderOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto pipe = PipelinedEncoderGpu(dev_, opt).run(128, 1 << 12, rng);
    auto np = NonPipelinedEncoderGpu(dev_, opt).run(128, 1 << 12, rng);
    EXPECT_GT(pipe.throughput_per_ms, np.throughput_per_ms);
}

TEST_F(GpuEncoderTest, AdvantageGrowsForSmallMessages)
{
    GpuEncoderOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto speedup = [&](size_t k) {
        auto pipe = PipelinedEncoderGpu(dev_, opt).run(128, k, rng);
        auto np = NonPipelinedEncoderGpu(dev_, opt).run(128, k, rng);
        return pipe.throughput_per_ms / np.throughput_per_ms;
    };
    EXPECT_GT(speedup(1 << 10), speedup(1 << 16));
}

TEST_F(GpuEncoderTest, PipelinedLatencyWorse)
{
    GpuEncoderOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto pipe = PipelinedEncoderGpu(dev_, opt).run(128, 1 << 16, rng);
    auto np = NonPipelinedEncoderGpu(dev_, opt).run(128, 1 << 16, rng);
    EXPECT_GT(pipe.first_latency_ms, np.first_latency_ms);
}

TEST_F(GpuEncoderTest, UtilizationHigherWhenPipelined)
{
    GpuEncoderOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto pipe = PipelinedEncoderGpu(dev_, opt).run(256, 1 << 12, rng);
    auto np = NonPipelinedEncoderGpu(dev_, opt).run(256, 1 << 12, rng);
    EXPECT_GT(pipe.utilization, np.utilization);
}

TEST_F(GpuEncoderTest, CpuBaselineProducesSameCodewords)
{
    Rng rng1(21), rng2(21);
    std::vector<std::vector<Fr>> cpu_codes, gpu_codes;
    CpuEncoderBaseline(1).run(2, 1 << 8, rng1, &cpu_codes);
    GpuEncoderOptions opt;
    opt.functional = 1;
    PipelinedEncoderGpu(dev_, opt).run(2, 1 << 8, rng2, &gpu_codes);
    ASSERT_EQ(cpu_codes.size(), 1u);
    ASSERT_EQ(gpu_codes.size(), 1u);
    EXPECT_EQ(cpu_codes[0], gpu_codes[0]);
}

} // namespace
} // namespace bzk
