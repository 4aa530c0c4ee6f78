/**
 * @file
 * Tests for the tensor-code polynomial commitment: completeness, binding
 * behaviour under tampering, and transcript consistency.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/TensorPcs.h"
#include "ff/Fields.h"

namespace bzk {
namespace {

template <typename F>
class PcsT : public ::testing::Test
{
};

using Fields = ::testing::Types<Fr>;
TYPED_TEST_SUITE(PcsT, Fields);

template <typename F>
std::vector<F>
randomPoly(unsigned n, Rng &rng)
{
    std::vector<F> poly(size_t{1} << n);
    for (auto &p : poly)
        p = F::random(rng);
    return poly;
}

template <typename F>
std::vector<F>
randomPoint(unsigned n, Rng &rng)
{
    std::vector<F> point(n);
    for (auto &p : point)
        p = F::random(rng);
    return point;
}

TYPED_TEST(PcsT, OpenVerifyRoundTrip)
{
    using F = TypeParam;
    Rng rng(1);
    for (unsigned n : {6u, 8u, 11u}) {
        TensorPcs<F> pcs(n, 42);
        auto poly = randomPoly<F>(n, rng);
        PcsProverState<F> state;
        pcs.commit(poly, state);
        auto point = randomPoint<F>(n, rng);
        F value = evaluateTable(poly, point);

        Transcript pt("pcs-test");
        pt.absorbDigest("root", state.commitment.root);
        auto proof = pcs.open(state, pcs.evalRow(state, point), pt);

        Transcript vt("pcs-test");
        vt.absorbDigest("root", state.commitment.root);
        EXPECT_TRUE(
            pcs.verify(state.commitment, point, value, proof, vt))
            << "n=" << n;
    }
}

TYPED_TEST(PcsT, ValueMatchesMultilinearEvaluate)
{
    using F = TypeParam;
    Rng rng(2);
    unsigned n = 8;
    TensorPcs<F> pcs(n, 7);
    auto poly = randomPoly<F>(n, rng);
    PcsProverState<F> state;
    pcs.commit(poly, state);
    auto point = randomPoint<F>(n, rng);
    // The value verify reads off the evaluation row,
    // <eval_row, eq(r_col)>, is the table's extension at the point.
    auto row = pcs.evalRow(state, point);
    std::vector<F> r_col(point.begin() + pcs.rowVars(), point.end());
    EXPECT_EQ(ff::dotLanes(row.data(), eqTable(r_col).data(), row.size()),
              Multilinear<F>(poly).evaluate(point));
}

TYPED_TEST(PcsT, RejectsWrongValue)
{
    using F = TypeParam;
    Rng rng(3);
    unsigned n = 8;
    TensorPcs<F> pcs(n, 7);
    auto poly = randomPoly<F>(n, rng);
    PcsProverState<F> state;
    pcs.commit(poly, state);
    auto point = randomPoint<F>(n, rng);
    F value = evaluateTable(poly, point);

    Transcript pt("pcs-test");
    pt.absorbDigest("root", state.commitment.root);
    auto proof = pcs.open(state, pcs.evalRow(state, point), pt);

    Transcript vt("pcs-test");
    vt.absorbDigest("root", state.commitment.root);
    EXPECT_FALSE(pcs.verify(state.commitment, point, value + F::one(),
                            proof, vt));
}

TYPED_TEST(PcsT, RejectsTamperedEvalRow)
{
    using F = TypeParam;
    Rng rng(4);
    unsigned n = 8;
    TensorPcs<F> pcs(n, 7, /*column_openings=*/12);
    auto poly = randomPoly<F>(n, rng);
    PcsProverState<F> state;
    pcs.commit(poly, state);
    auto point = randomPoint<F>(n, rng);
    F value = evaluateTable(poly, point);

    Transcript pt("pcs-test");
    pt.absorbDigest("root", state.commitment.root);
    auto proof = pcs.open(state, pcs.evalRow(state, point), pt);
    proof.eval_row[3] += F::one();

    Transcript vt("pcs-test");
    vt.absorbDigest("root", state.commitment.root);
    EXPECT_FALSE(pcs.verify(state.commitment, point, value, proof, vt));
}

TYPED_TEST(PcsT, RejectsTamperedColumn)
{
    using F = TypeParam;
    Rng rng(5);
    unsigned n = 8;
    TensorPcs<F> pcs(n, 7);
    auto poly = randomPoly<F>(n, rng);
    PcsProverState<F> state;
    pcs.commit(poly, state);
    auto point = randomPoint<F>(n, rng);
    F value = evaluateTable(poly, point);

    Transcript pt("pcs-test");
    pt.absorbDigest("root", state.commitment.root);
    auto proof = pcs.open(state, pcs.evalRow(state, point), pt);
    proof.columns[0][0] += F::one();

    Transcript vt("pcs-test");
    vt.absorbDigest("root", state.commitment.root);
    EXPECT_FALSE(pcs.verify(state.commitment, point, value, proof, vt));
}

TYPED_TEST(PcsT, RejectsWrongRoot)
{
    using F = TypeParam;
    Rng rng(6);
    unsigned n = 8;
    TensorPcs<F> pcs(n, 7);
    auto poly = randomPoly<F>(n, rng);
    PcsProverState<F> state;
    pcs.commit(poly, state);
    auto point = randomPoint<F>(n, rng);
    F value = evaluateTable(poly, point);

    Transcript pt("pcs-test");
    pt.absorbDigest("root", state.commitment.root);
    auto proof = pcs.open(state, pcs.evalRow(state, point), pt);

    PcsCommitment bad = state.commitment;
    bad.root.bytes[0] ^= 1;
    Transcript vt("pcs-test");
    vt.absorbDigest("root", state.commitment.root);
    EXPECT_FALSE(pcs.verify(bad, point, value, proof, vt));
}

TYPED_TEST(PcsT, RejectsProofForDifferentPolynomial)
{
    using F = TypeParam;
    Rng rng(7);
    unsigned n = 8;
    TensorPcs<F> pcs(n, 7, /*column_openings=*/12);
    auto poly1 = randomPoly<F>(n, rng);
    auto poly2 = randomPoly<F>(n, rng);
    PcsProverState<F> state1, state2;
    pcs.commit(poly1, state1);
    pcs.commit(poly2, state2);
    auto point = randomPoint<F>(n, rng);
    F value1 = evaluateTable(poly1, point);

    Transcript pt("pcs-test");
    pt.absorbDigest("root", state1.commitment.root);
    auto proof = pcs.open(state1, pcs.evalRow(state1, point), pt);

    // Same proof against the other commitment must fail.
    Transcript vt("pcs-test");
    vt.absorbDigest("root", state1.commitment.root);
    EXPECT_FALSE(
        pcs.verify(state2.commitment, point, value1, proof, vt));
}

TYPED_TEST(PcsT, CommitmentDeterministic)
{
    using F = TypeParam;
    Rng rng(8);
    unsigned n = 7;
    TensorPcs<F> pcs(n, 9);
    auto poly = randomPoly<F>(n, rng);
    PcsProverState<F> s1, s2;
    pcs.commit(poly, s1);
    pcs.commit(poly, s2);
    EXPECT_EQ(s1.commitment.root, s2.commitment.root);
}

TYPED_TEST(PcsT, DistinctPolynomialsDistinctRoots)
{
    using F = TypeParam;
    Rng rng(9);
    unsigned n = 7;
    TensorPcs<F> pcs(n, 9);
    auto poly = randomPoly<F>(n, rng);
    PcsProverState<F> s1, s2;
    pcs.commit(poly, s1);
    poly[0] += F::one();
    pcs.commit(poly, s2);
    EXPECT_NE(s1.commitment.root, s2.commitment.root);
}

TYPED_TEST(PcsT, CommitStoresRowCodewordsRowMajor)
{
    // The prover state keeps one flat k x 2m matrix of canonical
    // residues: row r's slice is the codeword of the table's row r, for
    // any thread count.
    using F = TypeParam;
    Rng rng(10);
    unsigned n = 9;
    TensorPcs<F> pcs(n, 9);
    size_t m = size_t{1} << pcs.colVars();
    size_t k = size_t{1} << pcs.rowVars();
    auto poly = randomPoly<F>(n, rng);
    exec::ExecConfig cfg;
    cfg.threads = 2;
    exec::ExecContext exec(cfg);
    PcsProverState<F> state, serial;
    pcs.commit(poly, state, &exec);
    ASSERT_EQ(state.codewords.size(), k * 2 * m);
    for (size_t row = 0; row < k; ++row) {
        auto cw = pcs.code().encode(
            std::span<const F>(poly.data() + row * m, m));
        EXPECT_TRUE(std::equal(cw.begin(), cw.end(),
                               state.codewords.begin() + row * 2 * m,
                               [](const F &x, const U256 &canonical) {
                                   return x.toU256() == canonical;
                               }))
            << "row " << row;
    }
    pcs.commit(poly, serial);
    EXPECT_EQ(state.commitment.root, serial.commitment.root);
}

TYPED_TEST(PcsT, CommitRootMatchesPerColumnLeaves)
{
    // The commit splits whole groups of kLeafBlock columns across
    // threads (3, 4 and 5 threads split 2m / 16 = 4 to 32 groups into
    // uneven chunks), and each chunk hashes its groups as one stripe.
    // The root must equal a tree over leaves built one column at a time
    // from the row codewords, up to the benchmark's n = 16.
    using F = TypeParam;
    Rng rng(12);
    for (unsigned n : {6u, 9u, 12u, 16u}) {
        TensorPcs<F> pcs(n, 9);
        size_t m = size_t{1} << pcs.colVars();
        size_t k = size_t{1} << pcs.rowVars();
        auto poly = randomPoly<F>(n, rng);
        std::vector<std::vector<F>> rows(k);
        for (size_t row = 0; row < k; ++row)
            rows[row] = pcs.code().encode(
                std::span<const F>(poly.data() + row * m, m));
        std::vector<Digest> leaves(2 * m);
        for (size_t col = 0; col < 2 * m; ++col) {
            std::vector<uint8_t> bytes(k * F::kNumBytes);
            for (size_t row = 0; row < k; ++row)
                rows[row][col].toBytes(bytes.data() + row * F::kNumBytes);
            leaves[col] = Sha256::digest(bytes);
        }
        Digest want = MerkleTree::buildFromLeaves(leaves).root();
        for (size_t threads : {1u, 3u, 4u, 5u}) {
            exec::ExecConfig cfg;
            cfg.threads = threads;
            exec::ExecContext exec(cfg);
            PcsProverState<F> state;
            pcs.commit(poly, state, &exec);
            EXPECT_EQ(state.commitment.root, want)
                << "n=" << n << " threads=" << threads;
        }
    }
}

TEST(ColumnLeaves, MatchPerColumnDigestsOnBothPaths)
{
    // hashColumns (16 lanes per group where the CPU has AVX-512, the
    // per-column path for the rest) and hashColumnRuns alone must both
    // give each column's SHA-256: widths below, at and around one group
    // and one stripe, odd and even row counts, and rows wider than the
    // hashed block.
    Rng rng(0xc01);
    for (size_t width : {1u, 15u, 16u, 17u, 48u, 512u, 560u}) {
        for (size_t rows : {1u, 2u, 3u, 256u}) {
            for (size_t stride : {width, width + 9}) {
                std::vector<U256> matrix(rows * stride);
                for (auto &v : matrix)
                    for (auto &limb : v.limb)
                        limb = rng.next();
                std::vector<Digest> want(width);
                std::vector<uint8_t> bytes(rows * 32);
                for (size_t col = 0; col < width; ++col) {
                    for (size_t row = 0; row < rows; ++row)
                        u256ToBytes(matrix[row * stride + col],
                                    std::span<uint8_t, 32>(
                                        bytes.data() + row * 32, 32));
                    want[col] = Sha256::digest(bytes);
                }
                std::vector<Digest> fast(width), runs(width);
                hashColumns(matrix.data(), rows, stride, width, fast.data());
                hashColumnRuns(matrix.data(), rows, stride, width,
                               runs.data());
                EXPECT_EQ(fast, want) << "width=" << width << " rows="
                                      << rows << " stride=" << stride;
                EXPECT_EQ(runs, want) << "width=" << width << " rows="
                                      << rows << " stride=" << stride;
            }
        }
    }
}

TYPED_TEST(PcsT, CommitMatchesAcrossBackends)
{
    // The 8-row IFMA encoder and the per-row path store the same
    // canonical matrix and commit to the same root, on 1 and 3
    // threads. n_vars 6 has k = 2 rows, so IFMA runs it per row too.
    using F = TypeParam;
    if (!ff::backendAvailable(ff::Backend::kIfma))
        GTEST_SKIP() << "this host has no AVX-512 IFMA";
    Rng rng(14);
    for (unsigned n : {6u, 9u, 12u, 14u}) {
        TensorPcs<F> pcs(n, 9);
        auto poly = randomPoly<F>(n, rng);
        for (size_t threads : {1u, 3u}) {
            exec::ExecConfig cfg;
            cfg.threads = threads;
            exec::ExecContext exec(cfg);
            PcsProverState<F> scalar, ifma;
            ff::forceBackend(ff::Backend::kScalar);
            pcs.commit(poly, scalar, &exec);
            ff::forceBackend(ff::Backend::kIfma);
            pcs.commit(poly, ifma, &exec);
            ff::clearForcedBackend();
            EXPECT_EQ(ifma.codewords, scalar.codewords)
                << "n=" << n << " threads=" << threads;
            EXPECT_EQ(ifma.commitment.root, scalar.commitment.root)
                << "n=" << n << " threads=" << threads;
        }
    }
}

TYPED_TEST(PcsT, OpenAccountsUnderItsOwnRegion)
{
    // open()'s row combinations are PCS opening work; tagging them
    // "sumcheck" would fold opening time into bzk_host_sumcheck_ms.
    // Both combinations come from one pass over the table.
    using F = TypeParam;
    Rng rng(11);
    unsigned n = 8;
    TensorPcs<F> pcs(n, 9);
    exec::ExecConfig cfg;
    cfg.threads = 2;
    exec::ExecContext exec(cfg);
    auto poly = randomPoly<F>(n, rng);
    PcsProverState<F> state;
    pcs.commit(poly, state, &exec);
    Transcript t("pcs-region");
    t.absorbDigest("root", state.commitment.root);
    (void)pcs.open(state, pcs.evalRow(state, randomPoint<F>(n, rng)), t,
                   &exec);
    EXPECT_EQ(exec.stats("sumcheck").calls, 0u);
    EXPECT_EQ(exec.stats("open").calls, 1u);
}

TYPED_TEST(PcsT, CommitBorrowsOnlyANamedTable)
{
    // The state keeps a view of the table, so a temporary would dangle
    // in it: commit takes a named table and rejects a std::vector
    // rvalue at compile time.
    using F = TypeParam;
    using Pcs = TensorPcs<F>;
    using State = PcsProverState<F>;
    static_assert(requires(const Pcs &pcs, State &st, std::vector<F> &t) {
        pcs.commit(t, st);
    });
    static_assert(!requires(const Pcs &pcs, State &st) {
        pcs.commit(std::vector<F>{}, st);
    });
}

TYPED_TEST(PcsT, RecommitReusesTheStateAndMatchesAFreshOne)
{
    // A state committed again keeps its codeword matrix, and the new
    // commitment, codewords and openings equal a fresh state's.
    using F = TypeParam;
    Rng rng(13);
    unsigned n = 9;
    TensorPcs<F> pcs(n, 9);
    exec::ExecConfig cfg;
    cfg.threads = 2;
    exec::ExecContext exec(cfg);
    auto first = randomPoly<F>(n, rng);
    auto second = randomPoly<F>(n, rng);
    auto point = randomPoint<F>(n, rng);
    PcsProverState<F> reused, fresh;
    pcs.commit(first, reused, &exec);
    const U256 *matrix = reused.codewords.data();
    pcs.commit(second, reused, &exec);
    pcs.commit(second, fresh);
    EXPECT_EQ(reused.codewords.data(), matrix);
    EXPECT_EQ(reused.codewords, fresh.codewords);
    EXPECT_EQ(reused.commitment.root, fresh.commitment.root);
    EXPECT_EQ(reused.poly.data(), second.data());
    Transcript t1("pcs-reuse"), t2("pcs-reuse");
    auto p1 = pcs.open(reused, pcs.evalRow(reused, point, &exec), t1, &exec);
    auto p2 = pcs.open(fresh, pcs.evalRow(fresh, point), t2);
    EXPECT_EQ(p1.eval_row, p2.eval_row);
    EXPECT_EQ(p1.proximity_row, p2.proximity_row);
    EXPECT_EQ(p1.columns, p2.columns);
}

TYPED_TEST(PcsT, ShapeSplitsVariables)
{
    using F = TypeParam;
    TensorPcs<F> pcs(10, 1);
    EXPECT_EQ(pcs.rowVars() + pcs.colVars(), 10u);
    EXPECT_GE(pcs.colVars(), 5u);
}

} // namespace
} // namespace bzk
