/**
 * @file
 * Equivalence fuzz for the MSM paths: msmNaive (double-and-add
 * reference), msmPippengerJacobian (scalar bucket loop), and
 * msmPippenger (vectorized batch-affine bucket accumulation), across
 * every lane-kernel backend this host can run. The batch-affine pass
 * leans on bucket-internal doublings and P + (-P) cancellations, so
 * the fuzz deliberately feeds duplicate points, negated pairs, zero
 * and boundary scalars.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "curve/Msm.h"
#include "ff/FieldBackend.h"
#include "util/Rng.h"

namespace bzk {
namespace {

class BackendGuard
{
  public:
    ~BackendGuard() { ff::clearForcedBackend(); }
};

std::vector<ff::Backend>
availableBackends()
{
    std::vector<ff::Backend> backends;
    for (ff::Backend b : {ff::Backend::kScalar, ff::Backend::kIfma})
        if (ff::backendAvailable(b))
            backends.push_back(b);
    return backends;
}

/** Affine serialization equality: bit-identical, not just same group
 * element. */
void
expectAffineEq(const G1Point &a, const G1Point &b)
{
    G1Affine aa = a.toAffine();
    G1Affine ba = b.toAffine();
    ASSERT_EQ(aa.infinity, ba.infinity);
    if (!aa.infinity) {
        EXPECT_EQ(aa.x.toHexString(), ba.x.toHexString());
        EXPECT_EQ(aa.y.toHexString(), ba.y.toHexString());
    }
}

TEST(Msm, AllPathsMatchNaiveAcrossSizesAndBackends)
{
    BackendGuard guard;
    Rng rng(41);
    for (size_t n : {1u, 2u, 3u, 5u, 8u, 31u, 64u, 257u}) {
        auto points = randomPoints(n, rng);
        std::vector<Fr> scalars(n);
        for (auto &s : scalars)
            s = Fr::random(rng);
        G1Point expect = msmNaive(points, scalars);
        for (ff::Backend backend : availableBackends()) {
            SCOPED_TRACE(std::string(ff::backendName(backend)) +
                         " n=" + std::to_string(n));
            ff::forceBackend(backend);
            G1Point vec = msmPippenger(points, scalars);
            G1Point jac = msmPippengerJacobian(points, scalars);
            EXPECT_EQ(vec, expect);
            EXPECT_EQ(jac, expect);
            expectAffineEq(vec, expect);
        }
    }
}

TEST(Msm, DuplicatePointsForceBucketDoublings)
{
    // Same point many times with equal digits: the batch-affine pass
    // must take the tangent (doubling) branch, not the chord.
    Rng rng(42);
    auto base = randomPoints(2, rng);
    std::vector<G1Affine> points(24, base[0]);
    std::vector<Fr> scalars(24, Fr::fromUint(5));
    G1Point expect = msmNaive(points, scalars);
    EXPECT_EQ(msmPippenger(points, scalars), expect);
    EXPECT_EQ(msmPippenger(points, scalars, 4), expect);
}

TEST(Msm, NegatedPairsCancelToInfinity)
{
    // P and -P with the same scalar land in the same bucket and must
    // cancel through the batch-affine infinity branch.
    Rng rng(43);
    auto base = randomPoints(4, rng);
    std::vector<G1Affine> points;
    for (const auto &p : base) {
        points.push_back(p);
        G1Affine neg = p;
        neg.y = -neg.y;
        points.push_back(neg);
    }
    std::vector<Fr> scalars(points.size(), Fr::fromUint(3));
    EXPECT_TRUE(msmPippenger(points, scalars).isInfinity());
    // Mixed: one unpaired point survives.
    points.push_back(base[0]);
    scalars.push_back(Fr::fromUint(3));
    G1Point expect = msmNaive(points, scalars);
    EXPECT_EQ(msmPippenger(points, scalars), expect);
    EXPECT_FALSE(expect.isInfinity());
}

TEST(Msm, InfinityInputsAndZeroScalars)
{
    Rng rng(44);
    auto points = randomPoints(9, rng);
    points[2] = G1Affine{}; // explicit affine infinity input
    points[7] = G1Affine{};
    std::vector<Fr> scalars(points.size());
    for (auto &s : scalars)
        s = Fr::random(rng);
    scalars[0] = Fr::zero();
    scalars[5] = Fr::zero();
    scalars[8] = -Fr::one(); // full 254-bit scalar, every window hot
    G1Point expect = msmNaive(points, scalars);
    EXPECT_EQ(msmPippenger(points, scalars), expect);
    EXPECT_EQ(msmPippengerJacobian(points, scalars), expect);
}

TEST(Msm, WindowSweepDoesNotChangeResult)
{
    Rng rng(45);
    auto points = randomPoints(70, rng);
    std::vector<Fr> scalars(70);
    for (auto &s : scalars)
        s = Fr::random(rng);
    G1Point expect = msmNaive(points, scalars);
    for (unsigned c : {1u, 2u, 3u, 5u, 8u, 11u}) {
        EXPECT_EQ(msmPippenger(points, scalars, c), expect) << c;
        EXPECT_EQ(msmPippengerJacobian(points, scalars, c), expect) << c;
    }
    // Widths above 16 are clamped rather than allocating 2^99 buckets.
    EXPECT_EQ(msmPippenger(points, scalars, 99u), expect);
}

TEST(Msm, WindowTableIsMonotonicAndBounded)
{
    unsigned prev = msmWindowBits(1);
    EXPECT_GE(prev, 1u);
    for (size_t lg = 1; lg <= 24; ++lg) {
        unsigned bits = msmWindowBits(size_t{1} << lg);
        EXPECT_GE(bits, prev);
        EXPECT_LE(bits, 16u);
        prev = bits;
    }
    EXPECT_EQ(msmWindowBits(size_t{1} << 14), 10u);
}

TEST(Msm, SizeMismatchThrowsTypedError)
{
    Rng rng(46);
    auto points = randomPoints(4, rng);
    std::vector<Fr> scalars(3, Fr::one());
    try {
        msmPippenger(points, scalars);
        FAIL() << "expected MsmSizeMismatch";
    } catch (const MsmSizeMismatch &e) {
        EXPECT_EQ(e.points, 4u);
        EXPECT_EQ(e.scalars, 3u);
        EXPECT_NE(std::string(e.what()).find("msmPippenger"),
                  std::string::npos);
    }
    EXPECT_THROW(msmNaive(points, scalars), MsmSizeMismatch);
    EXPECT_THROW(msmPippengerJacobian(points, scalars),
                 MsmSizeMismatch);
}

TEST(Msm, BatchToAffineMatchesPerPoint)
{
    Rng rng(47);
    std::vector<G1Point> pts;
    G1Point cur = G1Point::random(rng);
    G1Point stride = G1Point::random(rng);
    for (int i = 0; i < 21; ++i) {
        pts.push_back(cur);
        cur = cur.add(stride);
    }
    pts[3] = G1Point();  // infinity in the middle
    pts[20] = G1Point(); // and at the end
    auto batch = G1Point::batchToAffine(pts);
    ASSERT_EQ(batch.size(), pts.size());
    for (size_t i = 0; i < pts.size(); ++i) {
        G1Affine one = pts[i].toAffine();
        EXPECT_EQ(batch[i].infinity, one.infinity) << i;
        if (!one.infinity) {
            EXPECT_EQ(batch[i].x.toHexString(), one.x.toHexString());
            EXPECT_EQ(batch[i].y.toHexString(), one.y.toHexString());
        }
    }
    EXPECT_TRUE(G1Point::batchToAffine({}).empty());
}

TEST(Msm, VectorizedSweep2e12MatchesJacobian)
{
    // Medium-size sweep (the full 2^14 acceptance sweep runs in
    // bench_micro's cross-check; this keeps tier-1 fast while still
    // covering multi-round pairwise reduction in every bucket).
    Rng rng(48);
    const size_t n = 1 << 12;
    auto points = randomPoints(n, rng);
    std::vector<Fr> scalars(n);
    for (auto &s : scalars)
        s = Fr::random(rng);
    G1Point vec = msmPippenger(points, scalars);
    G1Point jac = msmPippengerJacobian(points, scalars);
    EXPECT_EQ(vec, jac);
    expectAffineEq(vec, jac);
}

} // namespace
} // namespace bzk
