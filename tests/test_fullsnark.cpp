/**
 * @file
 * Tests for the R1CS builder and the wiring-sound FullSnark, including
 * the attacks the table-commitment Snark cannot catch: assignments that
 * satisfy every gate-local row but violate wiring, public-input or
 * constant bindings.
 */

#include <gtest/gtest.h>

#include <array>
#include <span>

#include "circuit/Circuit.h"
#include "circuit/R1cs.h"
#include "core/FullSnark.h"
#include "ff/Fields.h"

namespace bzk {
namespace {

template <typename F>
class R1csT : public ::testing::Test
{
};

using Fields = ::testing::Types<Fr>;
TYPED_TEST_SUITE(R1csT, Fields);

template <typename F>
Circuit<F>
sampleCircuit()
{
    // out = (x + w) * w + 7, x public, w private.
    Circuit<F> c;
    WireId x = c.addInput();
    WireId w = c.addWitness();
    WireId k = c.addConst(F::fromUint(7));
    WireId s = c.add(x, w);
    WireId p = c.mul(s, w);
    c.add(p, k);
    return c;
}

TYPED_TEST(R1csT, HonestAssignmentSatisfies)
{
    using F = TypeParam;
    auto c = sampleCircuit<F>();
    auto r = buildR1cs(c);
    std::vector<F> inputs{F::fromUint(3)};
    std::vector<F> witness{F::fromUint(5)};
    auto asg = c.evaluate(inputs, witness);
    auto z = r.extendWitness(inputs, asg);
    EXPECT_TRUE(r.isSatisfied(z));
}

TYPED_TEST(R1csT, TamperedWireViolates)
{
    using F = TypeParam;
    auto c = sampleCircuit<F>();
    auto r = buildR1cs(c);
    std::vector<F> inputs{F::fromUint(3)};
    std::vector<F> witness{F::fromUint(5)};
    auto asg = c.evaluate(inputs, witness);
    asg.wires.back() += F::one();
    auto z = r.extendWitness(inputs, asg);
    EXPECT_FALSE(r.isSatisfied(z));
}

TYPED_TEST(R1csT, WrongPublicInputViolates)
{
    using F = TypeParam;
    auto c = sampleCircuit<F>();
    auto r = buildR1cs(c);
    std::vector<F> inputs{F::fromUint(3)};
    std::vector<F> witness{F::fromUint(5)};
    auto asg = c.evaluate(inputs, witness);
    // Claim the computation used x = 4 while the wires used x = 3.
    std::vector<F> wrong{F::fromUint(4)};
    auto z = r.extendWitness(wrong, asg);
    EXPECT_FALSE(r.isSatisfied(z));
}

TYPED_TEST(R1csT, WrongConstantViolates)
{
    using F = TypeParam;
    auto c = sampleCircuit<F>();
    auto r = buildR1cs(c);
    std::vector<F> inputs{F::fromUint(3)};
    std::vector<F> witness{F::fromUint(5)};
    auto asg = c.evaluate(inputs, witness);
    // Gate 2 is the constant 7; pretend its wire carries 8.
    asg.wires[2] = F::fromUint(8);
    // Fix downstream wires so every *local* gate relation holds except
    // the constant binding.
    asg.wires[5] = asg.wires[4] + asg.wires[2];
    auto z = r.extendWitness(inputs, asg);
    EXPECT_FALSE(r.isSatisfied(z));
}

TYPED_TEST(R1csT, MatrixMleMatchesDenseEvaluation)
{
    using F = TypeParam;
    Rng rng(1);
    auto c = randomCircuit<F>(30, 4, rng);
    auto r = buildR1cs(c);
    // Dense A as a (rows x cols) table; its MLE at (rx, ry) must match
    // evalMatrixMle.
    std::vector<F> dense(r.numRows() * r.numCols(), F::zero());
    for (const auto &e : r.a)
        dense[e.row * r.numCols() + e.col] += e.coeff;
    Multilinear<F> dense_ml(std::move(dense));

    std::vector<F> rx(r.row_vars), ry(r.col_vars);
    for (auto &v : rx)
        v = F::random(rng);
    for (auto &v : ry)
        v = F::random(rng);
    std::vector<F> point = rx;
    point.insert(point.end(), ry.begin(), ry.end());
    EXPECT_EQ(r.evalMatrixMle(r.a, rx, ry), dense_ml.evaluate(point));
}

TYPED_TEST(R1csT, PublicMleMatchesDense)
{
    using F = TypeParam;
    Rng rng(2);
    auto c = sampleCircuit<F>();
    auto r = buildR1cs(c);
    std::vector<F> inputs{F::fromUint(9)};
    auto pub = r.publicHalf(inputs);
    Multilinear<F> pub_ml(pub);
    std::vector<F> tail(r.col_vars - 1);
    for (auto &v : tail)
        v = F::random(rng);
    EXPECT_EQ(r.evalPublicMle(inputs, tail), pub_ml.evaluate(tail));
}

template <typename F>
class FullSnarkT : public ::testing::Test
{
};

TYPED_TEST_SUITE(FullSnarkT, Fields);

template <typename F>
struct Instance
{
    Circuit<F> circuit;
    R1cs<F> r1cs;
    std::vector<F> inputs;
    Assignment<F> assignment;
};

template <typename F>
Instance<F>
randomInstanceWithInputs(size_t gates, Rng &rng)
{
    Instance<F> inst;
    // An input-bearing random circuit: start from an input, then grow.
    Circuit<F> &c = inst.circuit;
    std::vector<WireId> pool;
    pool.push_back(c.addInput());
    pool.push_back(c.addConst(F::fromUint(3)));
    for (int i = 0; i < 4; ++i)
        pool.push_back(c.addWitness());
    while (c.numGates() < gates) {
        WireId l = pool[rng.nextBounded(pool.size())];
        WireId r = pool[rng.nextBounded(pool.size())];
        pool.push_back((rng.next() & 1) ? c.mul(l, r) : c.add(l, r));
        if (pool.size() > 64)
            pool.erase(pool.begin() + 2);
    }
    inst.r1cs = buildR1cs(c);
    inst.inputs = {F::fromUint(11)};
    std::vector<F> witness(c.numWitnesses());
    for (auto &w : witness)
        w = F::random(rng);
    inst.assignment = c.evaluate(inst.inputs, witness);
    return inst;
}

TYPED_TEST(FullSnarkT, ProveVerifyRoundTrip)
{
    using F = TypeParam;
    Rng rng(3);
    for (size_t gates : {100u, 400u}) {
        auto inst = randomInstanceWithInputs<F>(gates, rng);
        // PCS needs >= 6 private-half vars -> pad via bigger circuits
        // only; skip too-small instances.
        if (inst.r1cs.col_vars - 1 < 6)
            continue;
        FullSnark<F> snark(inst.r1cs, 77);
        auto proof = snark.prove(inst.inputs, inst.assignment);
        EXPECT_TRUE(snark.verify(proof, inst.inputs)) << gates;
    }
}

TYPED_TEST(FullSnarkT, RejectsWrongPublicInput)
{
    using F = TypeParam;
    Rng rng(4);
    auto inst = randomInstanceWithInputs<F>(200, rng);
    FullSnark<F> snark(inst.r1cs, 77);
    auto proof = snark.prove(inst.inputs, inst.assignment);
    std::vector<F> wrong{inst.inputs[0] + F::one()};
    EXPECT_FALSE(snark.verify(proof, wrong));
}

TYPED_TEST(FullSnarkT, RejectsWiringViolation)
{
    // The attack the table-commitment Snark cannot catch: every gate
    // row is locally consistent, but a fan-out wire is lied about.
    using F = TypeParam;
    Rng rng(5);
    auto inst = randomInstanceWithInputs<F>(200, rng);
    // Corrupt one mid-circuit wire and patch only gates whose row
    // directly *outputs* it, leaving consumers reading the old value.
    auto tampered = inst.assignment;
    tampered.wires[100] += F::one();
    FullSnark<F> snark(inst.r1cs, 77);
    auto proof = snark.prove(inst.inputs, tampered);
    EXPECT_FALSE(snark.verify(proof, inst.inputs));
}

TYPED_TEST(FullSnarkT, RejectsTamperedPhase1)
{
    using F = TypeParam;
    Rng rng(6);
    auto inst = randomInstanceWithInputs<F>(200, rng);
    FullSnark<F> snark(inst.r1cs, 77);
    auto proof = snark.prove(inst.inputs, inst.assignment);
    proof.phase1.rounds[1][2] += F::one();
    EXPECT_FALSE(snark.verify(proof, inst.inputs));
}

TYPED_TEST(FullSnarkT, RejectsTamperedPhase2)
{
    using F = TypeParam;
    Rng rng(7);
    auto inst = randomInstanceWithInputs<F>(200, rng);
    FullSnark<F> snark(inst.r1cs, 77);
    auto proof = snark.prove(inst.inputs, inst.assignment);
    proof.phase2.rounds[0][0] += F::one();
    EXPECT_FALSE(snark.verify(proof, inst.inputs));
}

/**
 * FullSnark's prover with a degree-3 phase 2: sum_y M(y) z(y) 1(y) over
 * an all-ones third table, so every phase-2 round sends 4 values of the
 * same quadratic. Lagrange interpolation through them gives back the
 * honest round polynomial; only the round-size bound rejects the proof.
 */
template <typename F>
FullSnarkProof<F>
proveWithCubicPhase2(const R1cs<F> &r1cs, std::span<const F> inputs,
                     const Assignment<F> &assignment, uint64_t seed)
{
    TensorPcs<F> pcs(r1cs.col_vars - 1, seed);
    Transcript transcript("batchzk.fullsnark.v1");
    uint8_t dims[2] = {static_cast<uint8_t>(r1cs.row_vars),
                       static_cast<uint8_t>(r1cs.col_vars)};
    transcript.absorb("r1cs.dims", dims);
    for (const F &x : inputs)
        transcript.absorbField("public", x);

    FullSnarkProof<F> proof;
    std::vector<F> z = r1cs.extendWitness(inputs, assignment);
    std::vector<F> w = r1cs.privateHalf(assignment);
    PcsProverState<F> st_w;
    pcs.commit(w, st_w);
    proof.commit_w = st_w.commitment;
    transcript.absorbDigest("com.w", proof.commit_w.root);
    std::vector<F> tau(r1cs.row_vars);
    for (auto &t : tau)
        t = transcript.template challengeField<F>("tau");

    std::vector<F> az = r1cs.apply(r1cs.a, z);
    std::vector<F> bz = r1cs.apply(r1cs.b, z);
    std::vector<F> cz = r1cs.apply(r1cs.c, z);
    std::vector<F> rx, weights;
    proof.phase1 = proveGateSumcheck<MulGate>(
        tau, {az, bz, cz}, {&az, &bz, &cz}, weights,
        RoundLabels{"p1.g", "p1.r"}, transcript, &rx);
    proof.va = az[0];
    proof.vb = bz[0];
    proof.vc = cz[0];
    transcript.absorbField("p1.va", proof.va);
    transcript.absorbField("p1.vb", proof.vb);
    transcript.absorbField("p1.vc", proof.vc);

    F alpha = transcript.template challengeField<F>("alpha");
    std::vector<F> m(r1cs.numCols(), F::zero());
    auto eq_rx = eqTable(rx);
    for (const auto &e : r1cs.a)
        m[e.col] += e.coeff * eq_rx[e.row];
    for (const auto &e : r1cs.b)
        m[e.col] += alpha * e.coeff * eq_rx[e.row];
    for (const auto &e : r1cs.c)
        m[e.col] += alpha * alpha * e.coeff * eq_rx[e.row];
    std::vector<F> ones(z.size(), F::one());
    std::vector<F> ry = proveRounds(
        {m, z, ones}, std::array{&m, &z, &ones},
        steppedSums<4>([](const std::array<const F *, 3> &at, const F *,
                          F *mz, size_t n) {
            ff::mulLanes(at[0], at[1], mz, n);
            return ff::dotLanes(mz, at[2], n);
        }),
        RoundLabels{"psc.g", "psc.r"}.absorber<F>(transcript),
        proof.phase2.rounds);

    std::vector<F> ry_tail(ry.begin() + 1, ry.end());
    proof.vw = evaluateTable(w, ry_tail);
    transcript.absorbField("p2.vw", proof.vw);
    proof.open_w = pcs.open(st_w, pcs.evalRow(st_w, ry_tail), transcript);
    return proof;
}

TYPED_TEST(FullSnarkT, RejectsOverDegreePhase2)
{
    // Phase 2 is quadratic: its rounds carry exactly 3 values, although
    // the wire format admits more.
    using F = TypeParam;
    Rng rng(11);
    auto inst = randomInstanceWithInputs<F>(200, rng);
    FullSnark<F> snark(inst.r1cs, 77);
    auto proof = proveWithCubicPhase2<F>(inst.r1cs, inst.inputs,
                                         inst.assignment, 77);
    ASSERT_FALSE(proof.phase2.rounds.empty());
    for (const auto &g : proof.phase2.rounds)
        ASSERT_EQ(g.size(), 4u);
    EXPECT_FALSE(snark.verify(proof, inst.inputs));
    // The same statement proved honestly is accepted.
    EXPECT_TRUE(
        snark.verify(snark.prove(inst.inputs, inst.assignment), inst.inputs));
}

TYPED_TEST(FullSnarkT, RejectsTamperedOpening)
{
    using F = TypeParam;
    Rng rng(8);
    auto inst = randomInstanceWithInputs<F>(200, rng);
    FullSnark<F> snark(inst.r1cs, 77);
    auto proof = snark.prove(inst.inputs, inst.assignment);
    proof.vw += F::one();
    EXPECT_FALSE(snark.verify(proof, inst.inputs));
}

TYPED_TEST(FullSnarkT, RejectsTamperedCommitment)
{
    using F = TypeParam;
    Rng rng(9);
    auto inst = randomInstanceWithInputs<F>(200, rng);
    FullSnark<F> snark(inst.r1cs, 77);
    auto proof = snark.prove(inst.inputs, inst.assignment);
    proof.commit_w.root.bytes[5] ^= 2;
    EXPECT_FALSE(snark.verify(proof, inst.inputs));
}

TYPED_TEST(FullSnarkT, ProofSizeAccounted)
{
    using F = TypeParam;
    Rng rng(10);
    auto inst = randomInstanceWithInputs<F>(200, rng);
    FullSnark<F> snark(inst.r1cs, 77);
    auto proof = snark.prove(inst.inputs, inst.assignment);
    EXPECT_GT(proof.sizeBytes(), 2000u);
}

} // namespace
} // namespace bzk
