/**
 * @file
 * Tests for the sum-check module: Algorithm 1 completeness/soundness,
 * the shared round loop with the Algorithm 1, product and gate combine
 * steps, Fiat-Shamir consistency, and the simulated GPU batch runs.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <type_traits>

#include "core/HighDegreeSnark.h"
#include "core/Snark.h"
#include "exec/ExecContext.h"
#include "ff/Fields.h"
#include "gpusim/Device.h"
#include "hash/Sha256.h"
#include "sumcheck/GpuSumcheck.h"
#include "sumcheck/Sumcheck.h"

namespace bzk {
namespace {

template <typename F>
class SumcheckT : public ::testing::Test
{
};

using Fields = ::testing::Types<Fr>;
TYPED_TEST_SUITE(SumcheckT, Fields);

TYPED_TEST(SumcheckT, CompletenessInteractive)
{
    using F = TypeParam;
    Rng rng(1);
    for (unsigned n : {1u, 3u, 6u}) {
        auto poly = Multilinear<F>::random(n, rng);
        std::vector<F> challenges(n);
        for (auto &c : challenges)
            c = F::random(rng);
        auto proof = proveSumcheck(poly, challenges);
        auto verdict =
            verifySumcheck(poly.sumOverHypercube(), proof, challenges);
        ASSERT_TRUE(verdict.ok) << "n=" << n;
        EXPECT_EQ(verdict.final_claim, poly.evaluate(verdict.point));
    }
}

TYPED_TEST(SumcheckT, RejectsWrongSum)
{
    using F = TypeParam;
    Rng rng(2);
    auto poly = Multilinear<F>::random(4, rng);
    std::vector<F> challenges(4);
    for (auto &c : challenges)
        c = F::random(rng);
    auto proof = proveSumcheck(poly, challenges);
    F bad_sum = poly.sumOverHypercube() + F::one();
    EXPECT_FALSE(verifySumcheck(bad_sum, proof, challenges).ok);
}

TYPED_TEST(SumcheckT, RejectsTamperedRound)
{
    using F = TypeParam;
    Rng rng(3);
    auto poly = Multilinear<F>::random(4, rng);
    std::vector<F> challenges(4);
    for (auto &c : challenges)
        c = F::random(rng);
    auto proof = proveSumcheck(poly, challenges);
    for (size_t round = 0; round < 4; ++round) {
        auto bad = proof;
        bad.rounds[round][0] += F::one();
        auto verdict =
            verifySumcheck(poly.sumOverHypercube(), bad, challenges);
        // Either an interior round check fails, or the final claim no
        // longer matches the polynomial.
        bool caught = !verdict.ok ||
                      verdict.final_claim != poly.evaluate(verdict.point);
        EXPECT_TRUE(caught) << "round " << round;
    }
}

TYPED_TEST(SumcheckT, ProofShapeMatchesAlgorithm1)
{
    // Each of the n rounds contributes exactly the pair (pi_i1, pi_i2),
    // and round sums halve consistently: pi_{i+1,1} + pi_{i+1,2} is the
    // fold of round i at r_i.
    using F = TypeParam;
    Rng rng(4);
    unsigned n = 5;
    auto poly = Multilinear<F>::random(n, rng);
    std::vector<F> challenges(n);
    for (auto &c : challenges)
        c = F::random(rng);
    auto proof = proveSumcheck(poly, challenges);
    ASSERT_EQ(proof.rounds.size(), n);
    for (unsigned i = 0; i + 1 < n; ++i) {
        const F &pi1 = proof.rounds[i][0];
        const F &pi2 = proof.rounds[i][1];
        F folded = pi1 + challenges[i] * (pi2 - pi1);
        EXPECT_EQ(proof.rounds[i + 1][0] + proof.rounds[i + 1][1], folded);
    }
}

TYPED_TEST(SumcheckT, FirstRoundSumsAreHalfTableSums)
{
    using F = TypeParam;
    Rng rng(5);
    auto poly = Multilinear<F>::random(3, rng);
    std::vector<F> challenges{F::random(rng), F::random(rng),
                              F::random(rng)};
    auto proof = proveSumcheck(poly, challenges);
    F lo = F::zero(), hi = F::zero();
    for (size_t b = 0; b < 4; ++b) {
        lo += poly.evals()[b];
        hi += poly.evals()[b + 4];
    }
    EXPECT_EQ(proof.rounds[0][0], lo);
    EXPECT_EQ(proof.rounds[0][1], hi);
}

TYPED_TEST(SumcheckT, FiatShamirRoundTrip)
{
    using F = TypeParam;
    Rng rng(6);
    auto poly = Multilinear<F>::random(5, rng);
    F sum = poly.sumOverHypercube();

    Transcript pt("fs-test");
    pt.absorbField("sum", sum);
    auto fs = proveSumcheckFs(poly, pt);

    Transcript vt("fs-test");
    vt.absorbField("sum", sum);
    auto verdict = verifySumcheckFs(sum, fs.proof, vt);
    ASSERT_TRUE(verdict.ok);
    EXPECT_EQ(verdict.point, fs.challenges);
    EXPECT_EQ(verdict.final_claim, poly.evaluate(verdict.point));
}

TYPED_TEST(SumcheckT, FiatShamirBindsStatement)
{
    // A proof generated for one claimed sum must not verify under a
    // transcript that absorbed a different statement.
    using F = TypeParam;
    Rng rng(7);
    auto poly = Multilinear<F>::random(4, rng);
    F sum = poly.sumOverHypercube();

    Transcript pt("fs-test");
    pt.absorbField("sum", sum);
    auto fs = proveSumcheckFs(poly, pt);

    Transcript vt("fs-test");
    vt.absorbField("sum", sum + F::one());
    auto verdict = verifySumcheckFs(sum + F::one(), fs.proof, vt);
    bool caught =
        !verdict.ok || verdict.final_claim != poly.evaluate(verdict.point);
    EXPECT_TRUE(caught);
}

TYPED_TEST(SumcheckT, FsProofBitIdenticalAcrossThreadCounts)
{
    // The fixed-shape chunked reduction must make round polynomials —
    // and hence challenges and the whole proof — independent of the
    // thread count, including n below the serial cutoff.
    using F = TypeParam;
    Rng rng(61);
    for (unsigned n : {3u, 9u, 12u}) {
        auto poly = Multilinear<F>::random(n, rng);
        Transcript st("fs-threads");
        auto serial = proveSumcheckFs(poly, st);

        size_t hw = std::thread::hardware_concurrency();
        for (size_t threads :
             {size_t{1}, size_t{2}, hw ? hw : size_t{4}}) {
            exec::ExecConfig cfg;
            cfg.threads = threads;
            exec::ExecContext exec(cfg);
            Transcript pt("fs-threads");
            auto fs = proveSumcheckFs(poly, pt, &exec);
            ASSERT_EQ(fs.proof.rounds, serial.proof.rounds)
                << "n=" << n << " threads=" << threads;
            EXPECT_EQ(fs.challenges, serial.challenges);
        }
    }
}

TYPED_TEST(SumcheckT, FiatShamirMatchesAlgorithm1Reference)
{
    // Under the challenges it drew, the Fiat-Shamir prover sends exactly
    // the rounds of the explicit-challenge Algorithm 1.
    using F = TypeParam;
    Rng rng(63);
    exec::ExecConfig cfg;
    cfg.threads = 2;
    exec::ExecContext exec(cfg);
    const exec::ExecContext *contexts[] = {nullptr, &exec};
    for (unsigned n : {1u, 8u, 13u}) {
        auto poly = Multilinear<F>::random(n, rng);
        for (const exec::ExecContext *ctx : contexts) {
            Transcript pt("fs-reference");
            auto fs = proveSumcheckFs(poly, pt, ctx);
            EXPECT_EQ(fs.proof.rounds,
                      proveSumcheck(poly, fs.challenges).rounds)
                << "n=" << n << (ctx ? " with exec" : " serial");
        }
    }
}

TEST(SumcheckGolden, FiatShamirRoundsN14)
{
    // SHA-256 of every round value of one fixed-seed proof. At n = 14
    // the first rounds sum over several exec::kReduceChunk-wide chunks.
    Rng rng(2024);
    auto poly = Multilinear<Fr>::random(14, rng);
    exec::ExecContext exec;
    const exec::ExecContext *contexts[] = {nullptr, &exec};
    for (const exec::ExecContext *ctx : contexts) {
        Transcript transcript("golden-sumcheck");
        auto fs = proveSumcheckFs(poly, transcript, ctx);
        Sha256 hash;
        for (const auto &round : fs.proof.rounds) {
            for (const Fr &v : round) {
                uint8_t bytes[Fr::kNumBytes];
                v.toBytes(bytes);
                hash.update(bytes);
            }
        }
        EXPECT_EQ(hash.finalize().toHex(),
                  "fdf0feb1458123c2be03fa45c1a673a5abcb7e8e3739aab09e7f9b25"
                  "7f9124f5")
            << (ctx ? "with exec" : "serial");
    }
}

constexpr RoundLabels kProductLabels{"psc.g", "psc.r"};

/**
 * FullSnark's phase-2 product sum_x p(x) * q(x) on the shared round
 * loop: a dot-product combine step, 3 values per round.
 */
template <typename F>
RoundsProof<F>
proveProduct(std::vector<F> &p, std::vector<F> &q, Transcript &transcript,
             std::vector<F> *point = nullptr,
             const exec::ExecContext *exec = nullptr)
{
    RoundsProof<F> proof;
    std::vector<F> r = proveRounds(
        {p, q}, std::array{&p, &q},
        steppedSums<3>([](const std::array<const F *, 2> &at, const F *, F *,
                          size_t m) { return ff::dotLanes(at[0], at[1], m); }),
        kProductLabels.absorber<F>(transcript), proof.rounds, exec);
    if (point)
        *point = r;
    return proof;
}

template <typename F>
SumcheckVerdict<F>
verifyProduct(const F &sum, const RoundsProof<F> &proof,
              Transcript &transcript)
{
    return verifyRounds<3>(sum, proof.rounds,
                           kProductLabels.absorber<F>(transcript));
}

TYPED_TEST(SumcheckT, ProductFsProofBitIdenticalAcrossThreadCounts)
{
    // 2^13 rows: several reduction chunks and a pooled fold in the
    // first rounds.
    using F = TypeParam;
    Rng rng(62);
    auto p = Multilinear<F>::random(13, rng).evals();
    auto q = Multilinear<F>::random(13, rng).evals();
    auto serial_p = p, serial_q = q;
    Transcript st("psc-threads");
    std::vector<F> serial_point;
    auto serial = proveProduct(serial_p, serial_q, st, &serial_point);

    for (size_t threads : {size_t{1}, size_t{2}, size_t{5}}) {
        exec::ExecConfig cfg;
        cfg.threads = threads;
        exec::ExecContext exec(cfg);
        auto par_p = p, par_q = q;
        Transcript pt("psc-threads");
        std::vector<F> point;
        auto proof = proveProduct(par_p, par_q, pt, &point, &exec);
        ASSERT_EQ(proof.rounds, serial.rounds) << "threads=" << threads;
        EXPECT_EQ(point, serial_point);
    }
}

TYPED_TEST(SumcheckT, ProductSumcheckCompleteness)
{
    using F = TypeParam;
    Rng rng(8);
    auto p = Multilinear<F>::random(4, rng);
    auto q = Multilinear<F>::random(4, rng);
    F sum = F::zero();
    for (size_t b = 0; b < 16; ++b)
        sum += p.evals()[b] * q.evals()[b];

    auto fold_p = p.evals(), fold_q = q.evals();
    Transcript pt("psc-test");
    pt.absorbField("sum", sum);
    std::vector<F> point;
    auto proof = proveProduct(fold_p, fold_q, pt, &point);
    for (const auto &g : proof.rounds)
        EXPECT_EQ(g.size(), 3u);

    Transcript vt("psc-test");
    vt.absorbField("sum", sum);
    auto verdict = verifyProduct(sum, proof, vt);
    ASSERT_TRUE(verdict.ok);
    EXPECT_EQ(verdict.point, point);
    EXPECT_EQ(verdict.final_claim,
              p.evaluate(verdict.point) * q.evaluate(verdict.point));
    // The folded tables are the factors' values at the final point.
    EXPECT_EQ(fold_p[0], p.evaluate(verdict.point));
    EXPECT_EQ(fold_q[0], q.evaluate(verdict.point));
}

TYPED_TEST(SumcheckT, ProductSumcheckRejectsWrongSum)
{
    using F = TypeParam;
    Rng rng(9);
    auto p = Multilinear<F>::random(3, rng).evals();
    auto q = Multilinear<F>::random(3, rng).evals();
    F sum = F::zero();
    for (size_t b = 0; b < 8; ++b)
        sum += p[b] * q[b];

    Transcript pt("psc-test");
    pt.absorbField("sum", sum);
    auto proof = proveProduct(p, q, pt);

    Transcript vt("psc-test");
    vt.absorbField("sum", sum);
    EXPECT_FALSE(verifyProduct(sum + F::one(), proof, vt).ok);
}

template <typename FieldT, typename GateT>
struct GateCase
{
    using F = FieldT;
    using Gate = GateT;
};

using GateCases =
    ::testing::Types<GateCase<Fr, MulGate>, GateCase<Fr, Pow4Gate>>;

struct GateCaseNames
{
    template <typename C>
    static std::string
    GetName(int)
    {
        return std::is_same_v<typename C::Gate, MulGate> ? "FrMul" : "FrPow4";
    }
};

template <typename C>
class GateSumcheckT : public ::testing::Test
{
};

TYPED_TEST_SUITE(GateSumcheckT, GateCases, GateCaseNames);

constexpr RoundLabels kTestLabels{"gate-test.g", "gate-test.r"};

/** eq(tau, .) plus tables satisfying the gate row-wise. */
template <typename F>
struct GateInstance
{
    std::vector<F> tau;
    std::vector<F> eq;
    std::vector<F> a, b, c;
};

/** G at one row in plain scalar arithmetic, apart from the lane kernels. */
template <typename Gate, typename F>
F
scalarGate(const F &a, const F &b, const F &c)
{
    if constexpr (std::is_same_v<Gate, Pow4Gate>)
        return a * a * a * a * b - c;
    else
        return a * b - c;
}

/**
 * Both gates have the form P(a, b) - c, so c = G(a, b, 0) satisfies
 * them at every row.
 */
template <typename Gate, typename F>
GateInstance<F>
randomGateInstance(unsigned n, Rng &rng)
{
    GateInstance<F> inst;
    inst.tau.resize(n);
    for (auto &t : inst.tau)
        t = F::random(rng);
    inst.eq = eqTable(inst.tau);
    size_t size = size_t{1} << n;
    inst.a.resize(size);
    inst.b.resize(size);
    inst.c.resize(size);
    for (size_t i = 0; i < size; ++i) {
        inst.a[i] = F::random(rng);
        inst.b[i] = F::random(rng);
        inst.c[i] = scalarGate<Gate>(inst.a[i], inst.b[i], F::zero());
    }
    return inst;
}

template <typename Gate, typename F>
RoundsProof<F>
proveGate(GateInstance<F> &inst, Transcript &transcript,
          std::vector<F> *point = nullptr,
          const exec::ExecContext *exec = nullptr)
{
    std::vector<F> weights;
    return proveGateSumcheck<Gate>(inst.tau, {inst.a, inst.b, inst.c},
                                   {&inst.a, &inst.b, &inst.c}, weights,
                                   kTestLabels, transcript, point, exec);
}

/**
 * SHA-256 of every round value of one fixed-seed gate sum-check at
 * n = 14, where the first rounds sum over several exec::kReduceChunk-wide
 * chunks.
 */
template <typename Gate>
std::string
gateRoundsDigest(const exec::ExecContext *exec)
{
    Rng rng(2025);
    auto inst = randomGateInstance<Gate, Fr>(14, rng);
    Transcript transcript("golden-gate");
    auto proof = proveGate<Gate, Fr>(inst, transcript, nullptr, exec);
    Sha256 hash;
    for (const auto &round : proof.rounds) {
        for (const Fr &v : round) {
            uint8_t bytes[Fr::kNumBytes];
            v.toBytes(bytes);
            hash.update(bytes);
        }
    }
    return hash.finalize().toHex();
}

TEST(GateSumcheckGolden, MulGateRoundsN14)
{
    exec::ExecContext exec;
    const exec::ExecContext *contexts[] = {nullptr, &exec};
    for (const exec::ExecContext *ctx : contexts)
        EXPECT_EQ(gateRoundsDigest<MulGate>(ctx),
                  "f0b7ad04b92961317ae58ce803892e80bcbeb5270d321dd16006bc8f"
                  "e82db0d0")
            << (ctx ? "with exec" : "serial");
}

TEST(GateSumcheckGolden, Pow4GateRoundsN14)
{
    exec::ExecContext exec;
    const exec::ExecContext *contexts[] = {nullptr, &exec};
    for (const exec::ExecContext *ctx : contexts)
        EXPECT_EQ(gateRoundsDigest<Pow4Gate>(ctx),
                  "1a96e3bca94aaeffc87145d39d99c45b49fd0538ccbcddf2af802b9d"
                  "83319475")
            << (ctx ? "with exec" : "serial");
}

TYPED_TEST(GateSumcheckT, Completeness)
{
    using F = typename TypeParam::F;
    using Gate = typename TypeParam::Gate;
    Rng rng(71);
    for (unsigned n : {1u, 3u, 5u}) {
        auto inst = randomGateInstance<Gate, F>(n, rng);
        auto fold = inst; // prover folds in place
        Transcript pt("gate-test");
        std::vector<F> point;
        auto proof = proveGate<Gate>(fold, pt, &point);
        ASSERT_EQ(proof.rounds.size(), n);
        for (const auto &g : proof.rounds)
            EXPECT_EQ(g.size(), Gate::kEvals);

        Transcript vt("gate-test");
        auto verdict =
            verifyGateSumcheck<Gate>(F::zero(), proof, kTestLabels, vt);
        ASSERT_TRUE(verdict.ok) << "n=" << n;
        EXPECT_EQ(verdict.point, point);

        // The final claim reduces to the gate polynomial at the
        // sum-check point, evaluated through the folded tables. eq is
        // never folded, so its factor comes from eqEval.
        F expected = eqEval(inst.tau, verdict.point) *
                     scalarGate<Gate>(fold.a[0], fold.b[0], fold.c[0]);
        EXPECT_EQ(verdict.final_claim, expected);

        // The folded tables agree with the multilinear extensions.
        EXPECT_EQ(fold.a[0],
                  Multilinear<F>(inst.a).evaluate(verdict.point));
        EXPECT_EQ(fold.c[0],
                  Multilinear<F>(inst.c).evaluate(verdict.point));
    }
}

TYPED_TEST(GateSumcheckT, FirstRoundMatchesScalarReference)
{
    // g(t) = sum_x eq_t(x) * G(a_t(x), b_t(x), c_t(x)) with every
    // factor interpolated as lo + t * (hi - lo), one row at a time.
    using F = typename TypeParam::F;
    using Gate = typename TypeParam::Gate;
    Rng rng(76);
    auto inst = randomGateInstance<Gate, F>(5, rng);
    inst.c[3] += F::one(); // a nonzero sum exercises every term
    auto fold = inst;
    Transcript pt("gate-test");
    auto proof = proveGate<Gate>(fold, pt);

    size_t half = inst.a.size() / 2;
    for (size_t t = 0; t < Gate::kEvals; ++t) {
        F t_f = F::fromUint(t);
        auto at = [&](const std::vector<F> &v, size_t x) {
            return v[x] + t_f * (v[x + half] - v[x]);
        };
        F expected = F::zero();
        for (size_t x = 0; x < half; ++x) {
            F g =
                scalarGate<Gate>(at(inst.a, x), at(inst.b, x), at(inst.c, x));
            expected += at(inst.eq, x) * g;
        }
        EXPECT_EQ(proof.rounds[0][t], expected) << "t=" << t;
    }
}

/**
 * Every round's g(t) in plain scalar arithmetic under @p challenges:
 * g(t) = sum_x eq_t(x) * G(a_t(x), b_t(x), c_t(x)) with every factor,
 * eq included, interpolated as lo + t * (hi - lo) one row at a time,
 * then every table folded row by row with the round's challenge.
 */
template <typename Gate, typename F>
std::vector<std::vector<F>>
scalarReferenceRounds(GateInstance<F> inst, const std::vector<F> &challenges)
{
    std::vector<std::vector<F>> rounds;
    for (const F &r : challenges) {
        size_t half = inst.a.size() / 2;
        std::vector<F> g(Gate::kEvals, F::zero());
        for (size_t t = 0; t < Gate::kEvals; ++t) {
            F t_f = F::fromUint(t);
            auto at = [&](const std::vector<F> &v, size_t x) {
                return v[x] + t_f * (v[x + half] - v[x]);
            };
            for (size_t x = 0; x < half; ++x)
                g[t] += at(inst.eq, x) * scalarGate<Gate>(at(inst.a, x),
                                                          at(inst.b, x),
                                                          at(inst.c, x));
        }
        rounds.push_back(std::move(g));
        for (std::vector<F> *v : {&inst.eq, &inst.a, &inst.b, &inst.c}) {
            for (size_t x = 0; x < half; ++x)
                (*v)[x] += r * ((*v)[x + half] - (*v)[x]);
            v->resize(half);
        }
    }
    return rounds;
}

TYPED_TEST(GateSumcheckT, EveryRoundMatchesScalarReference)
{
    // On an unsatisfied instance the rounds are the true sums, not
    // values that merely pass the round checks. tau entries of 0 and 1
    // zero half of the suffix weights, and 1/2 makes eq(tau_i, t)
    // constant in t.
    using F = typename TypeParam::F;
    using Gate = typename TypeParam::Gate;
    Rng rng(77);
    const F h = F::fromUint(2).inverse();
    const F r = F::random(rng);
    exec::ExecConfig cfg;
    cfg.threads = 2;
    exec::ExecContext exec(cfg);
    struct Case
    {
        unsigned n;
        std::vector<F> tau; // empty: the instance's random tau
        const exec::ExecContext *exec;
    };
    const Case cases[] = {
        {6, {}, nullptr},
        {6, {F::zero(), F::one(), h, F::zero(), F::one(), h}, nullptr},
        {6, {r, h, r, F::zero(), r, F::one()}, nullptr},
        {6, {h, h, h, h, h, h}, nullptr},
        // Two reduction chunks in the first round, on the pool.
        {13, {}, &exec},
    };
    for (const Case &tc : cases) {
        auto inst = randomGateInstance<Gate, F>(tc.n, rng);
        if (!tc.tau.empty()) {
            inst.tau = tc.tau;
            inst.eq = eqTable(inst.tau);
        }
        inst.c[3] += F::one();
        auto fold = inst;
        Transcript pt("gate-test");
        std::vector<F> point;
        auto proof = proveGate<Gate>(fold, pt, &point, tc.exec);
        ASSERT_EQ(point.size(), tc.n);
        EXPECT_EQ(proof.rounds, scalarReferenceRounds<Gate>(inst, point))
            << "case " << &tc - cases;
    }
}

TYPED_TEST(GateSumcheckT, RejectsUnsatisfiedRow)
{
    using F = typename TypeParam::F;
    using Gate = typename TypeParam::Gate;
    Rng rng(72);
    auto inst = randomGateInstance<Gate, F>(4, rng);
    inst.c[5] += F::one(); // break the gate identity at one row
    Transcript pt("gate-test");
    auto proof = proveGate<Gate>(inst, pt);
    Transcript vt("gate-test");
    auto verdict =
        verifyGateSumcheck<Gate>(F::zero(), proof, kTestLabels, vt);
    // With overwhelming probability eq(tau, 5) != 0, so the sum is
    // nonzero and the first-round check g[0] + g[1] == 0 fails.
    EXPECT_FALSE(verdict.ok);
}

TYPED_TEST(GateSumcheckT, RejectsTamperedRound)
{
    using F = typename TypeParam::F;
    using Gate = typename TypeParam::Gate;
    Rng rng(73);
    auto inst = randomGateInstance<Gate, F>(4, rng);
    auto fold = inst;
    Transcript pt("gate-test");
    std::vector<F> honest_point;
    auto proof = proveGate<Gate>(fold, pt, &honest_point);
    for (size_t round = 0; round < 4; ++round) {
        for (size_t t : {size_t{0}, size_t{3}, Gate::kEvals - 1}) {
            auto bad = proof;
            bad.rounds[round][t] += F::one();
            Transcript vt("gate-test");
            auto verdict =
                verifyGateSumcheck<Gate>(F::zero(), bad, kTestLabels, vt);
            // A tampered evaluation either breaks a round-sum check
            // directly or (via Fiat-Shamir) derails every later
            // challenge; the final claim then cannot match the gate.
            EXPECT_TRUE(!verdict.ok || verdict.point != honest_point)
                << "round " << round << " eval " << t;
        }
    }
}

TYPED_TEST(GateSumcheckT, WrongEvalCountIsRejected)
{
    using F = typename TypeParam::F;
    using Gate = typename TypeParam::Gate;
    Rng rng(74);
    auto inst = randomGateInstance<Gate, F>(3, rng);
    Transcript pt("gate-test");
    auto proof = proveGate<Gate>(inst, pt);
    auto short_round = proof;
    short_round.rounds[1].pop_back(); // too few to pin the round poly
    Transcript vt("gate-test");
    EXPECT_FALSE(
        verifyGateSumcheck<Gate>(F::zero(), short_round, kTestLabels, vt)
            .ok);
    auto long_round = proof;
    long_round.rounds[1].push_back(F::zero());
    Transcript vt2("gate-test");
    EXPECT_FALSE(
        verifyGateSumcheck<Gate>(F::zero(), long_round, kTestLabels, vt2)
            .ok);
}

TYPED_TEST(GateSumcheckT, ProofBitIdenticalAcrossThreadCounts)
{
    // 2^13 rows: several reduction chunks and a pooled fold in the
    // first rounds.
    using F = typename TypeParam::F;
    using Gate = typename TypeParam::Gate;
    Rng rng(75);
    auto inst = randomGateInstance<Gate, F>(13, rng);

    auto serial = inst;
    Transcript st("gate-threads");
    std::vector<F> serial_point;
    auto serial_proof = proveGate<Gate>(serial, st, &serial_point);

    for (size_t threads : {size_t{2}, size_t{5}}) {
        exec::ExecConfig cfg;
        cfg.threads = threads;
        exec::ExecContext exec(cfg);
        auto par = inst;
        Transcript ptt("gate-threads");
        std::vector<F> point;
        auto proof = proveGate<Gate>(par, ptt, &point, &exec);
        ASSERT_EQ(proof.rounds, serial_proof.rounds)
            << "threads=" << threads;
        EXPECT_EQ(point, serial_point);
    }
}

TYPED_TEST(GateSumcheckT, BorrowedTablesFoldIntoReusedBuffers)
{
    // A prover that keeps its buffers passes its tables read-only (here
    // const) and folds into buffers that still hold another proof's
    // leftovers. Rounds, point and final values must equal the
    // in-place proof's. A borrowed buffer grows once to half a table
    // and keeps that size and storage: no proof shrinks it, so no
    // later proof grows it again.
    using F = typename TypeParam::F;
    using Gate = typename TypeParam::Gate;
    Rng rng(77);
    const auto x = randomGateInstance<Gate, F>(12, rng);
    const auto y = randomGateInstance<Gate, F>(12, rng);
    const size_t half = x.a.size() / 2;
    exec::ExecConfig cfg;
    cfg.threads = 2;
    exec::ExecContext exec(cfg);
    const exec::ExecContext *contexts[] = {nullptr, &exec};
    for (const exec::ExecContext *ctx : contexts) {
        std::vector<F> fa, fb, fc, weights;
        const std::array<const std::vector<F> *, 3> buffers{&fa, &fb, &fc};
        std::array<const F *, 3> storage{};
        for (const GateInstance<F> *inst : {&y, &x, &y}) {
            auto in_place = *inst;
            Transcript rt("gate-borrow");
            std::vector<F> want_point;
            auto want = proveGate<Gate>(in_place, rt, &want_point, ctx);

            Transcript bt("gate-borrow");
            std::vector<F> point;
            auto proof = proveGateSumcheck<Gate>(
                inst->tau, {inst->a, inst->b, inst->c}, {&fa, &fb, &fc},
                weights, kTestLabels, bt, &point, ctx);
            ASSERT_EQ(proof.rounds, want.rounds)
                << (ctx ? "with exec" : "serial");
            EXPECT_EQ(point, want_point);
            EXPECT_EQ(fa[0], in_place.a[0]);
            EXPECT_EQ(fb[0], in_place.b[0]);
            EXPECT_EQ(fc[0], in_place.c[0]);
            for (size_t j = 0; j < 3; ++j) {
                EXPECT_EQ(buffers[j]->size(), half);
                if (!storage[j])
                    storage[j] = buffers[j]->data();
                EXPECT_EQ(buffers[j]->data(), storage[j]);
            }
        }
    }
}

class GpuSumcheckTest : public ::testing::Test
{
  protected:
    gpusim::Device dev_{gpusim::DeviceSpec::v100()};
};

TEST_F(GpuSumcheckTest, FunctionalProofsVerify)
{
    GpuSumcheckOptions opt;
    opt.functional = 2;
    Rng rng(10);
    std::vector<SumcheckProof<Fr>> proofs;
    PipelinedSumcheckGpu(dev_, opt).run(4, 8, rng, &proofs);
    ASSERT_EQ(proofs.size(), 2u);
    for (const auto &proof : proofs)
        EXPECT_EQ(proof.rounds.size(), 8u);
}

TEST_F(GpuSumcheckTest, DriversAgreeFunctionally)
{
    GpuSumcheckOptions opt;
    opt.functional = 2;
    Rng rng1(11), rng2(11);
    std::vector<SumcheckProof<Fr>> a, b;
    PipelinedSumcheckGpu(dev_, opt).run(4, 6, rng1, &a);
    IntuitiveSumcheckGpu(dev_, opt).run(4, 6, rng2, &b);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].rounds, b[i].rounds);
}

TEST_F(GpuSumcheckTest, PipelinedThroughputWins)
{
    GpuSumcheckOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto pipe = PipelinedSumcheckGpu(dev_, opt).run(256, 14, rng);
    auto base = IntuitiveSumcheckGpu(dev_, opt).run(256, 14, rng);
    EXPECT_GT(pipe.throughput_per_ms, base.throughput_per_ms);
}

TEST_F(GpuSumcheckTest, AdvantageGrowsForSmallInstances)
{
    GpuSumcheckOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto speedup = [&](unsigned n) {
        auto pipe = PipelinedSumcheckGpu(dev_, opt).run(256, n, rng);
        auto base = IntuitiveSumcheckGpu(dev_, opt).run(256, n, rng);
        return pipe.throughput_per_ms / base.throughput_per_ms;
    };
    EXPECT_GT(speedup(10), speedup(16));
}

TEST_F(GpuSumcheckTest, PipelinedLatencyWorse)
{
    GpuSumcheckOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto pipe = PipelinedSumcheckGpu(dev_, opt).run(128, 14, rng);
    auto base = IntuitiveSumcheckGpu(dev_, opt).run(128, 14, rng);
    EXPECT_GT(pipe.first_latency_ms, base.first_latency_ms);
}

TEST_F(GpuSumcheckTest, PingPongMemorySmallerThanStagedBatch)
{
    GpuSumcheckOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto pipe = PipelinedSumcheckGpu(dev_, opt).run(64, 14, rng);
    auto base = IntuitiveSumcheckGpu(dev_, opt).run(64, 14, rng);
    EXPECT_LT(pipe.peak_device_bytes, base.peak_device_bytes);
}

TEST_F(GpuSumcheckTest, UtilizationHigherWhenPipelined)
{
    GpuSumcheckOptions opt;
    opt.functional = 0;
    Rng rng(1);
    auto pipe = PipelinedSumcheckGpu(dev_, opt).run(256, 12, rng);
    auto base = IntuitiveSumcheckGpu(dev_, opt).run(256, 12, rng);
    EXPECT_GT(pipe.utilization, base.utilization);
}

} // namespace
} // namespace bzk
