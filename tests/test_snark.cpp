/**
 * @file
 * End-to-end tests of the gate SNARK under both gates (the table-commit
 * MulGate and the high-degree Pow4Gate) over both fields: prove/verify
 * round trips, rejection of tampered proofs and unsatisfied tables, a
 * prover reused across complete and abandoned proofs, and the
 * evaluation rows the sum-check hands the openings.
 */

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "circuit/Circuit.h"
#include "core/HighDegreeSnark.h"
#include "core/Serialize.h"
#include "core/Snark.h"
#include "core/TensorPcs.h"
#include "ff/Fields.h"
#include "hash/Transcript.h"
#include "sumcheck/Sumcheck.h"

namespace bzk {
namespace {

template <typename F>
ConstraintTables<F>
satisfiedTables(unsigned n_vars, Rng &rng)
{
    // A random circuit sized to fill 2^n_vars rows.
    size_t target = (size_t{1} << n_vars) - (size_t{1} << (n_vars - 2));
    auto c = randomCircuit<F>(target, 8, rng);
    std::vector<F> witness(c.numWitnesses());
    for (auto &w : witness)
        w = F::random(rng);
    auto asg = c.evaluate({}, witness);
    auto t = c.buildTables(asg);
    EXPECT_EQ(t.n_vars, n_vars);
    return t;
}

template <typename FieldT, typename GateT>
struct Case
{
    using F = FieldT;
    using Gate = GateT;
};

using Cases = ::testing::Types<Case<Fr, MulGate>, Case<Fr, Pow4Gate>>;

struct CaseNames
{
    template <typename C>
    static std::string
    GetName(int)
    {
        return std::is_same_v<typename C::Gate, MulGate> ? "FrMul" : "FrPow4";
    }
};

template <typename C>
class SnarkT : public ::testing::Test
{
  protected:
    using F = typename C::F;
    using Prover = GateSnark<F, typename C::Gate>;
    /** The same field's SNARK under the other gate. */
    using OtherGate = std::conditional_t<
        std::is_same_v<typename C::Gate, MulGate>, Pow4Gate, MulGate>;

    /** A satisfied instance for this case's gate. */
    static ConstraintTables<F>
    satisfied(unsigned n_vars, Rng &rng)
    {
        if constexpr (std::is_same_v<typename C::Gate, Pow4Gate>)
            return highDegreeInstance<F>(n_vars, rng);
        else
            return satisfiedTables<F>(n_vars, rng);
    }
};

TYPED_TEST_SUITE(SnarkT, Cases, CaseNames);

TYPED_TEST(SnarkT, ProveVerifyRoundTrip)
{
    Rng rng(1);
    for (unsigned n : {6u, 8u, 10u}) {
        auto tables = TestFixture::satisfied(n, rng);
        typename TestFixture::Prover snark(n, /*seed=*/99);
        auto proof = snark.prove(tables, {});
        EXPECT_EQ(proof.gate_sc.rounds.size(), n);
        for (const auto &g : proof.gate_sc.rounds)
            EXPECT_EQ(g.size(), TypeParam::Gate::kEvals);
        EXPECT_TRUE(snark.verify(proof, {})) << "n=" << n;
    }
}

TYPED_TEST(SnarkT, ProofSizeIsNontrivial)
{
    // The paper notes proofs of this protocol family reach MBs; at toy
    // sizes we just check the accounting is sane and grows.
    Rng rng(2);
    auto t8 = TestFixture::satisfied(8, rng);
    auto t10 = TestFixture::satisfied(10, rng);
    typename TestFixture::Prover s8(8, 99), s10(10, 99);
    auto p8 = s8.prove(t8, {});
    auto p10 = s10.prove(t10, {});
    EXPECT_GT(p8.sizeBytes(), 1000u);
    EXPECT_GT(p10.sizeBytes(), p8.sizeBytes());
}

TYPED_TEST(SnarkT, RejectsUnsatisfiedTables)
{
    using F = typename TestFixture::F;
    Rng rng(3);
    auto tables = TestFixture::satisfied(8, rng);
    tables.c[5] += F::one(); // break one constraint
    typename TestFixture::Prover snark(8, 99);
    auto proof = snark.prove(tables, {});
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, RejectsTamperedOpeningValue)
{
    using F = typename TestFixture::F;
    Rng rng(4);
    auto tables = TestFixture::satisfied(8, rng);
    typename TestFixture::Prover snark(8, 99);
    auto proof = snark.prove(tables, {});
    proof.va += F::one();
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, RejectsTamperedSumcheckRound)
{
    using F = typename TestFixture::F;
    Rng rng(5);
    auto tables = TestFixture::satisfied(8, rng);
    typename TestFixture::Prover snark(8, 99);
    auto proof = snark.prove(tables, {});
    proof.gate_sc.rounds[2][1] += F::one();
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, RejectsWrongRoundShape)
{
    Rng rng(5);
    auto tables = TestFixture::satisfied(6, rng);
    typename TestFixture::Prover snark(6, 99);
    auto proof = snark.prove(tables, {});
    auto short_round = proof;
    short_round.gate_sc.rounds[1].pop_back();
    EXPECT_FALSE(snark.verify(short_round, {}));
    auto missing_round = proof;
    missing_round.gate_sc.rounds.pop_back();
    EXPECT_FALSE(snark.verify(missing_round, {}));
}

TYPED_TEST(SnarkT, RejectsTamperedCommitment)
{
    Rng rng(6);
    auto tables = TestFixture::satisfied(8, rng);
    typename TestFixture::Prover snark(8, 99);
    auto proof = snark.prove(tables, {});
    proof.commit_b.root.bytes[7] ^= 0x80;
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, RejectsSwappedOpenings)
{
    Rng rng(7);
    auto tables = TestFixture::satisfied(8, rng);
    typename TestFixture::Prover snark(8, 99);
    auto proof = snark.prove(tables, {});
    std::swap(proof.open_a, proof.open_b);
    std::swap(proof.va, proof.vb);
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, PublicInputsBindProof)
{
    using F = typename TestFixture::F;
    Rng rng(8);
    auto tables = TestFixture::satisfied(8, rng);
    typename TestFixture::Prover snark(8, 99);
    std::vector<F> pub{F::fromUint(123)};
    auto proof = snark.prove(tables, pub);
    EXPECT_TRUE(snark.verify(proof, pub));
    std::vector<F> other{F::fromUint(124)};
    EXPECT_FALSE(snark.verify(proof, other));
}

TYPED_TEST(SnarkT, DifferentSeedsIncompatible)
{
    // The encoder seed is a public parameter; a proof under one seed
    // must not verify under another (different code, different columns).
    Rng rng(9);
    auto tables = TestFixture::satisfied(8, rng);
    typename TestFixture::Prover prover_side(8, 99);
    typename TestFixture::Prover verifier_side(8, 100);
    auto proof = prover_side.prove(tables, {});
    EXPECT_FALSE(verifier_side.verify(proof, {}));
}

TYPED_TEST(SnarkT, ProofDoesNotVerifyUnderTheOtherGate)
{
    // Transcript domains, labels and round shapes differ per gate, so
    // a proof never replays as the other protocol's, even on tables
    // that satisfy both gates.
    using F = typename TestFixture::F;
    using Other = typename TestFixture::OtherGate;
    ConstraintTables<F> tables;
    tables.n_vars = 6;
    tables.a.assign(64, F::zero());
    tables.b.assign(64, F::zero());
    tables.c.assign(64, F::zero());
    typename TestFixture::Prover snark(6, 99);
    auto proof = snark.prove(tables, {});
    ASSERT_TRUE(snark.verify(proof, {}));

    GateProof<F, Other> crossed;
    crossed.commit_a = proof.commit_a;
    crossed.commit_b = proof.commit_b;
    crossed.commit_c = proof.commit_c;
    crossed.gate_sc = proof.gate_sc;
    crossed.va = proof.va;
    crossed.vb = proof.vb;
    crossed.vc = proof.vc;
    crossed.open_a = proof.open_a;
    crossed.open_b = proof.open_b;
    crossed.open_c = proof.open_c;
    EXPECT_FALSE((GateSnark<F, Other>(6, 99).verify(crossed, {})));
}

TYPED_TEST(SnarkT, AllZeroTablesProveAndVerify)
{
    // Padding-only tables (0 * 0 = 0 everywhere) are valid.
    using F = typename TestFixture::F;
    ConstraintTables<F> tables;
    tables.n_vars = 6;
    tables.a.assign(64, F::zero());
    tables.b.assign(64, F::zero());
    tables.c.assign(64, F::zero());
    typename TestFixture::Prover snark(6, 99);
    auto proof = snark.prove(tables, {});
    EXPECT_TRUE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, ReusedProverMatchesAFreshOne)
{
    // A prover keeps its working set across proofs. After other proofs,
    // and after a proof abandoned at each stage, every proof it
    // completes must be byte for byte a fresh prover's. At n = 13 the
    // sum-check's round 0 spans two reduction chunks.
    using Prover = typename TestFixture::Prover;
    constexpr unsigned kNVars = 13;
    Rng rng(10);
    const auto x = TestFixture::satisfied(kNVars, rng);
    const auto y = TestFixture::satisfied(kNVars, rng);
    auto fresh = [](const auto &tables) {
        Prover prover(kNVars, 99);
        return serializeProof(prover.prove(tables, {}));
    };
    const auto want_x = fresh(x);
    const auto want_y = fresh(y);

    exec::ExecConfig cfg;
    cfg.threads = 2;
    exec::ExecContext pool(cfg);
    const exec::ExecContext *contexts[] = {nullptr, &pool};
    for (const exec::ExecContext *exec : contexts) {
        const char *where = exec ? "on a pool" : "serial";
        Prover prover(kNVars, 99);
        prover.setExec(exec);
        EXPECT_EQ(serializeProof(prover.prove(x, {})), want_x) << where;
        EXPECT_EQ(serializeProof(prover.prove(y, {})), want_y) << where;
        EXPECT_EQ(serializeProof(prover.prove(x, {})), want_x) << where;
        for (auto stop : {ProveStage::Encode, ProveStage::Merkle,
                          ProveStage::FiatShamir, ProveStage::Sumcheck}) {
            auto hook = [stop](ProveStage stage) { return stage != stop; };
            EXPECT_FALSE(prover.proveInterruptible(x, {}, hook)) << where;
            EXPECT_EQ(serializeProof(prover.prove(y, {})), want_y)
                << where << ", after abandoning at stage "
                << static_cast<int>(stop);
        }
    }
}

TYPED_TEST(SnarkT, EvaluationRowsAreTheTablesRowCombinations)
{
    // The prover hands each opening the folded table its sum-check
    // reached after rowVars rounds. That row must be the PCS's own
    // eq(r_row) combination of the table's rows (TensorPcs::evalRow)
    // at the proof's point, for every row count from 2 to 256.
    using F = typename TestFixture::F;
    using Gate = typename TypeParam::Gate;
    Rng rng(12);
    for (unsigned n_vars = 6; n_vars <= 16; ++n_vars) {
        SCOPED_TRACE("n_vars " + std::to_string(n_vars));
        const auto tables = TestFixture::satisfied(n_vars, rng);
        typename TestFixture::Prover snark(n_vars, 99);
        const auto proof = snark.prove(tables, {});
        ASSERT_TRUE(snark.verify(proof, {}));

        // The verifier's transcript up to the sum-check gives the point.
        Transcript transcript(Gate::kDomain);
        uint8_t n = static_cast<uint8_t>(n_vars);
        transcript.absorb("n_vars", std::span<const uint8_t>(&n, 1));
        transcript.absorbDigest("com.a", proof.commit_a.root);
        transcript.absorbDigest("com.b", proof.commit_b.root);
        transcript.absorbDigest("com.c", proof.commit_c.root);
        std::vector<F> tau(n_vars);
        for (auto &t : tau)
            t = transcript.template challengeField<F>("tau");
        auto verdict = verifyGateSumcheck<Gate>(F::zero(), proof.gate_sc,
                                                Gate::kLabels, transcript);
        ASSERT_TRUE(verdict.ok);

        const TensorPcs<F> &pcs = snark.pcs();
        EXPECT_EQ(pcs.rowVars(), n_vars - TensorPcs<F>::colVarsFor(n_vars));
        const std::vector<F> *table[] = {&tables.a, &tables.b, &tables.c};
        const PcsEvalProof<F> *open[] = {&proof.open_a, &proof.open_b,
                                         &proof.open_c};
        for (size_t j = 0; j < 3; ++j) {
            PcsProverState<F> state;
            pcs.commit(*table[j], state);
            EXPECT_EQ(open[j]->eval_row, pcs.evalRow(state, verdict.point))
                << "table " << "abc"[j];
        }
    }
}

} // namespace
} // namespace bzk
