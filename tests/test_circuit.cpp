/**
 * @file
 * Tests for the circuit builder, evaluation and constraint tables.
 */

#include <gtest/gtest.h>

#include "circuit/Circuit.h"
#include "ff/Fields.h"

namespace bzk {
namespace {

template <typename F>
class CircuitT : public ::testing::Test
{
};

using Fields = ::testing::Types<Fr>;
TYPED_TEST_SUITE(CircuitT, Fields);

TYPED_TEST(CircuitT, EvaluatesArithmetic)
{
    using F = TypeParam;
    Circuit<F> c;
    WireId x = c.addInput();
    WireId w = c.addWitness();
    WireId k = c.addConst(F::fromUint(7));
    WireId xw = c.mul(x, w);
    WireId out = c.add(xw, k);

    std::vector<F> inputs{F::fromUint(3)};
    std::vector<F> witness{F::fromUint(5)};
    auto asg = c.evaluate(inputs, witness);
    EXPECT_EQ(asg.wires[xw], F::fromUint(15));
    EXPECT_EQ(asg.wires[out], F::fromUint(22));
    EXPECT_EQ(c.outputWire(), out);
}

TYPED_TEST(CircuitT, CountsGateKinds)
{
    using F = TypeParam;
    Circuit<F> c;
    WireId a = c.addWitness();
    WireId b = c.addWitness();
    c.mul(a, b);
    c.mul(a, b);
    c.add(a, b);
    EXPECT_EQ(c.numGates(), 5u);
    EXPECT_EQ(c.numMulGates(), 2u);
    EXPECT_EQ(c.numWitnesses(), 2u);
    EXPECT_EQ(c.numInputs(), 0u);
}

TYPED_TEST(CircuitT, TablesSatisfiedByHonestAssignment)
{
    using F = TypeParam;
    Rng rng(1);
    auto c = randomCircuit<F>(200, 8, rng);
    std::vector<F> witness(c.numWitnesses());
    for (auto &w : witness)
        w = F::random(rng);
    auto asg = c.evaluate({}, witness);
    EXPECT_TRUE(c.checkSatisfied(asg));
}

TYPED_TEST(CircuitT, TablesViolatedByTamperedWire)
{
    using F = TypeParam;
    Circuit<F> c;
    WireId a = c.addWitness();
    WireId b = c.addWitness();
    c.mul(a, b);
    std::vector<F> witness{F::fromUint(2), F::fromUint(3)};
    auto asg = c.evaluate({}, witness);
    asg.wires.back() += F::one(); // claim 2*3 = 7
    EXPECT_FALSE(c.checkSatisfied(asg));
}

TYPED_TEST(CircuitT, TablesPaddedToPowerOfTwo)
{
    using F = TypeParam;
    Circuit<F> c;
    WireId a = c.addWitness();
    c.mul(a, a);
    c.mul(a, a); // 3 gates -> padded to 4
    auto asg = c.evaluate({}, std::vector<F>{F::fromUint(2)});
    auto t = c.buildTables(asg);
    EXPECT_EQ(t.a.size(), 4u);
    EXPECT_EQ(t.n_vars, 2u);
    // Padding rows satisfy 0*0 = 0.
    EXPECT_TRUE(t.a[3].isZero());
    EXPECT_TRUE(t.c[3].isZero());
}

TYPED_TEST(CircuitT, AddGateRowShape)
{
    using F = TypeParam;
    Circuit<F> c;
    WireId a = c.addWitness();
    WireId b = c.addWitness();
    WireId s = c.add(a, b);
    auto asg =
        c.evaluate({}, std::vector<F>{F::fromUint(4), F::fromUint(9)});
    auto t = c.buildTables(asg);
    EXPECT_EQ(t.a[s], F::fromUint(13));
    EXPECT_EQ(t.b[s], F::one());
    EXPECT_EQ(t.c[s], F::fromUint(13));
}

TYPED_TEST(CircuitT, RandomCircuitReproducible)
{
    using F = TypeParam;
    Rng r1(9), r2(9);
    auto c1 = randomCircuit<F>(100, 4, r1);
    auto c2 = randomCircuit<F>(100, 4, r2);
    EXPECT_EQ(c1.numGates(), c2.numGates());
    EXPECT_EQ(c1.numMulGates(), c2.numMulGates());
    std::vector<F> witness(c1.numWitnesses(), F::fromUint(3));
    auto a1 = c1.evaluate({}, witness);
    auto a2 = c2.evaluate({}, witness);
    EXPECT_EQ(a1.wires, a2.wires);
}

TYPED_TEST(CircuitT, RandomCircuitHitsTargetSize)
{
    using F = TypeParam;
    Rng rng(10);
    auto c = randomCircuit<F>(1000, 16, rng);
    EXPECT_GE(c.numGates(), 1000u);
    EXPECT_LT(c.numGates(), 1100u);
    EXPECT_GT(c.numMulGates(), 300u);
}

} // namespace
} // namespace bzk
