/**
 * @file
 * Tests for multilinear polynomials, eq tables, and Lagrange
 * interpolation.
 */

#include <gtest/gtest.h>

#include "ff/Fields.h"
#include "poly/Multilinear.h"

namespace bzk {
namespace {

template <typename F>
class MultilinearTest : public ::testing::Test
{
};

using Fields = ::testing::Types<Fr>;
TYPED_TEST_SUITE(MultilinearTest, Fields);

TYPED_TEST(MultilinearTest, EvaluateAtHypercubePointsMatchesTable)
{
    using F = TypeParam;
    Rng rng(1);
    auto p = Multilinear<F>::random(4, rng);
    for (size_t b = 0; b < 16; ++b) {
        // Algorithm-1 bit order: variable i (1-based) pairs with
        // bit 2^{n-i}; fixVariable peels the *top* bit first, so the
        // point vector is (top bit, ..., bottom bit) of b.
        std::vector<F> point(4);
        for (unsigned i = 0; i < 4; ++i)
            point[i] = ((b >> (3 - i)) & 1) ? F::one() : F::zero();
        EXPECT_EQ(p.evaluate(point), p.evals()[b]) << "point " << b;
    }
}

TYPED_TEST(MultilinearTest, FixVariableConsistentWithEvaluate)
{
    using F = TypeParam;
    Rng rng(2);
    auto p = Multilinear<F>::random(5, rng);
    F r = F::random(rng);
    auto q = p.fixVariable(r);
    std::vector<F> rest{F::random(rng), F::random(rng), F::random(rng),
                        F::random(rng)};
    std::vector<F> full;
    full.push_back(r);
    for (const auto &x : rest)
        full.push_back(x);
    EXPECT_EQ(q.evaluate(rest), p.evaluate(full));
}

TYPED_TEST(MultilinearTest, SumMatchesManualSum)
{
    using F = TypeParam;
    Rng rng(3);
    auto p = Multilinear<F>::random(6, rng);
    F manual = F::zero();
    for (const auto &e : p.evals())
        manual += e;
    EXPECT_EQ(p.sumOverHypercube(), manual);
}

TYPED_TEST(MultilinearTest, MultilinearInEachVariable)
{
    // p(..., r, ...) must be an affine function of r.
    using F = TypeParam;
    Rng rng(4);
    auto p = Multilinear<F>::random(3, rng);
    std::vector<F> pt{F::random(rng), F::random(rng), F::random(rng)};
    for (unsigned var = 0; var < 3; ++var) {
        auto at = [&](const F &x) {
            auto q = pt;
            q[var] = x;
            return p.evaluate(q);
        };
        F f0 = at(F::zero());
        F f1 = at(F::one());
        F f2 = at(F::fromUint(2));
        // Affine: f2 = 2*f1 - f0.
        EXPECT_EQ(f2, f1.dbl() - f0) << "var " << var;
    }
}

TYPED_TEST(MultilinearTest, EqTableSumsToOne)
{
    using F = TypeParam;
    Rng rng(5);
    std::vector<F> r{F::random(rng), F::random(rng), F::random(rng)};
    auto table = eqTable(r);
    ASSERT_EQ(table.size(), 8u);
    F sum = F::zero();
    for (const auto &e : table)
        sum += e;
    EXPECT_EQ(sum, F::one());
}

TYPED_TEST(MultilinearTest, EqTableSelectsPoint)
{
    // When r is itself Boolean, eq(r, .) is an indicator.
    using F = TypeParam;
    std::vector<F> r{F::one(), F::zero(), F::one()}; // b = 101 (top-first)
    auto table = eqTable(r);
    for (size_t b = 0; b < 8; ++b) {
        bool is_target = b == 0b101;
        EXPECT_EQ(table[b], is_target ? F::one() : F::zero()) << b;
    }
}

TYPED_TEST(MultilinearTest, EqTableMatchesMultilinearEvaluate)
{
    using F = TypeParam;
    Rng rng(6);
    auto p = Multilinear<F>::random(4, rng);
    std::vector<F> r{F::random(rng), F::random(rng), F::random(rng),
                     F::random(rng)};
    auto eq = eqTable(r);
    F via_eq = F::zero();
    for (size_t b = 0; b < eq.size(); ++b)
        via_eq += eq[b] * p.evals()[b];
    EXPECT_EQ(via_eq, p.evaluate(r));
}

/** eqTable's two-multiply definition: lo = t * (1 - r), hi = t * r. */
template <typename F>
std::vector<F>
eqTableTwoMultiplies(const std::vector<F> &r)
{
    std::vector<F> table{F::one()};
    for (auto it = r.rbegin(); it != r.rend(); ++it) {
        size_t half = table.size();
        table.resize(half * 2);
        for (size_t b = 0; b < half; ++b) {
            F t = table[b];
            table[b] = t * (F::one() - *it);
            table[b + half] = t * *it;
        }
    }
    return table;
}

TYPED_TEST(MultilinearTest, EqTableMatchesTwoMultiplyDefinition)
{
    using F = TypeParam;
    Rng rng(7);
    for (unsigned n : {0u, 1u, 7u, 12u}) {
        std::vector<F> r(n);
        for (auto &x : r)
            x = F::random(rng);
        EXPECT_EQ(eqTable(r), eqTableTwoMultiplies(r)) << "n=" << n;
    }
}

TYPED_TEST(MultilinearTest, EqSuffixWeightsHoldEverySuffixTable)
{
    // Round i of a gate sum-check reads eq(tau_>i, .), the table of
    // 2^(n-1-i) entries at [2^(n-1-i), 2^(n-i)). The buffer is filled
    // twice, so the tables checked are those of a reused buffer.
    using F = TypeParam;
    Rng rng(10);
    for (unsigned n : {1u, 2u, 5u}) {
        std::vector<F> tau(n), other(n);
        for (auto &x : tau)
            x = F::random(rng);
        for (auto &x : other)
            x = F::random(rng);
        std::vector<F> weights;
        eqSuffixWeights(other, weights);
        eqSuffixWeights(tau, weights);
        ASSERT_EQ(weights.size(), size_t{1} << n);
        for (unsigned i = 0; i < n; ++i) {
            std::vector<F> suffix(tau.begin() + i + 1, tau.end());
            size_t size = size_t{1} << suffix.size();
            std::vector<F> slot(weights.begin() + size,
                                weights.begin() + 2 * size);
            EXPECT_EQ(slot, eqTable(suffix)) << "n=" << n << " i=" << i;
        }
    }
}

TYPED_TEST(MultilinearTest, LagrangeRecoversPolynomial)
{
    using F = TypeParam;
    Rng rng(7);
    // Interpolate a random cubic and re-evaluate.
    std::vector<F> coeffs{F::random(rng), F::random(rng), F::random(rng),
                          F::random(rng)};
    auto eval_poly = [&](const F &x) {
        F acc = F::zero();
        F xp = F::one();
        for (const auto &c : coeffs) {
            acc += c * xp;
            xp *= x;
        }
        return acc;
    };
    std::vector<F> xs, ys;
    for (uint64_t i = 0; i < 4; ++i) {
        xs.push_back(F::fromUint(i));
        ys.push_back(eval_poly(F::fromUint(i)));
    }
    F x = F::random(rng);
    EXPECT_EQ(LagrangeBasis<F>(xs).eval(ys, x), eval_poly(x));
}

TYPED_TEST(MultilinearTest, LagrangePassesThroughPoints)
{
    using F = TypeParam;
    Rng rng(8);
    std::vector<F> xs, ys;
    for (uint64_t i = 0; i < 5; ++i) {
        xs.push_back(F::fromUint(i * 3 + 1));
        ys.push_back(F::random(rng));
    }
    LagrangeBasis<F> basis(xs);
    for (size_t i = 0; i < xs.size(); ++i)
        EXPECT_EQ(basis.eval(ys, xs[i]), ys[i]);
}

} // namespace
} // namespace bzk
