#ifndef BZK_SUMCHECK_SUMCHECK_H_
#define BZK_SUMCHECK_SUMCHECK_H_

/**
 * @file
 * The sum-check protocol (paper Sec. 2.3, Algorithm 1).
 *
 * proveSumcheck() is a line-for-line implementation of Algorithm 1 for a
 * multilinear polynomial: round i emits the two half-table sums
 * (pi_i1, pi_i2) and folds the table with the round challenge. It and
 * verifySumcheck() take explicit challenges; they are the reference the
 * tests compare against.
 *
 * Every Fiat-Shamir sum-check runs on one prover round loop,
 * proveRounds(), and one verifier loop, verifyRounds(). A caller
 * supplies the tables, a combine step that sums its round polynomial
 * over a chunk of rows, and the absorb step that binds each round
 * message into its transcript. The four callers: proveSumcheckFs
 * (Algorithm 1), the gate sum-check (eq times a custom gate G(a, b, c),
 * core/GateSnark.h), FullSnark's phase 2 (M times z) and GKR's layer
 * rounds (V times C plus D).
 */

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "exec/ExecContext.h"
#include "ff/FieldBackend.h"
#include "hash/Transcript.h"
#include "poly/Multilinear.h"
#include "util/Log.h"

namespace bzk {

/** Proof of Algorithm 1: one (pi_i1, pi_i2) pair per round. */
template <typename F>
struct SumcheckProof
{
    std::vector<std::array<F, 2>> rounds;
};

/** Verifier outcome of a sum-check run. */
template <typename F>
struct SumcheckVerdict
{
    bool ok = false;
    /** The claim remaining after all rounds: must equal p(point). */
    F final_claim{};
    /** The random point accumulated over the rounds. */
    std::vector<F> point;
};

/**
 * Algorithm 1: generate a sum-check proof for multilinear @p poly under
 * the given @p challenges (r_1 ... r_n).
 */
template <typename F>
SumcheckProof<F>
proveSumcheck(const Multilinear<F> &poly, const std::vector<F> &challenges)
{
    unsigned n = poly.numVars();
    if (challenges.size() != n)
        panic("proveSumcheck: %zu challenges for %u vars",
              challenges.size(), n);

    SumcheckProof<F> proof;
    proof.rounds.reserve(n);
    std::vector<F> table = poly.evals();
    for (unsigned i = 0; i < n; ++i) {
        size_t half = table.size() / 2;
        F pi1 = ff::sumLanes(table.data(), half);
        F pi2 = ff::sumLanes(table.data() + half, half);
        ff::foldLanes(table.data(), table.data() + half, challenges[i],
                      half);
        table.resize(half);
        proof.rounds.push_back({pi1, pi2});
    }
    return proof;
}

/**
 * Verify a sum-check proof against claimed sum @p claimed_sum.
 * The caller must still check verdict.final_claim == p(verdict.point)
 * using an oracle for p (direct evaluation in tests, the polynomial
 * commitment in the SNARK).
 */
template <typename F>
SumcheckVerdict<F>
verifySumcheck(const F &claimed_sum, const SumcheckProof<F> &proof,
               const std::vector<F> &challenges)
{
    SumcheckVerdict<F> verdict;
    if (challenges.size() != proof.rounds.size())
        return verdict;
    F claim = claimed_sum;
    for (size_t i = 0; i < proof.rounds.size(); ++i) {
        const F &pi1 = proof.rounds[i][0];
        const F &pi2 = proof.rounds[i][1];
        if (pi1 + pi2 != claim)
            return verdict;
        const F &r = challenges[i];
        claim = pi1 + r * (pi2 - pi1);
        verdict.point.push_back(r);
    }
    verdict.ok = true;
    verdict.final_claim = claim;
    return verdict;
}

/**
 * Proof of a sum-check on the shared round loop: round i carries its
 * round polynomial g_i as the values g_i(0), ..., g_i(d).
 */
template <typename F>
struct RoundsProof
{
    std::vector<std::vector<F>> rounds;
};

/** Transcript labels of a round message and its challenge. */
struct RoundLabels
{
    /** Label of each round-polynomial value. */
    const char *g;
    /** Label of each round challenge. */
    const char *r;

    /**
     * The common absorb step on @p transcript: every value of a round
     * message under label g, then the challenge drawn under label r.
     */
    template <typename F>
    auto
    absorber(Transcript &transcript) const
    {
        return [labels = *this, &transcript](std::span<const F> values) {
            for (const F &v : values)
                transcript.absorbField(labels.g, v);
            return transcript.template challengeField<F>(labels.r);
        };
    }
};

/**
 * The one Fiat-Shamir sum-check prover round loop (Algorithm 1: one
 * kernel per round, then a tree reduction of the round sums). It proves
 * sum_x P(T_0(x), ..., T_{N-1}(x)) for @p tables of one power-of-two
 * size and a polynomial P of degree kEvals - 1 in each variable. The
 * tables are folded in place; on return each holds one entry, its
 * value at the sum-check point.
 *
 * Round i sends g_i(t) for t = 0 .. kEvals - 1. Each table restricted
 * to the round variable is affine, so its value at t is the fold
 * lo + t * (hi - lo): at t = 0 and t = 1 the table halves themselves,
 * for t >= 2 a foldLanes into chunk scratch. @p combine maps those
 * values to the chunk's sum on the lane kernels,
 *
 *   F combine(const std::array<const F *, N> &at, F *scratch, size_t m)
 *
 * over rows at[j][0 .. m), where @p scratch holds m values it may
 * overwrite (none when kEvals == 2). @p absorb,
 *
 *   F absorb(std::span<const F> g),
 *
 * binds the round message into the transcript and returns the round
 * challenge. The fixed-shape chunk reduction keeps the sums, and so the
 * proof bytes, identical for any thread count and kernel backend.
 * Appends each round's values to @p rounds; returns the challenges.
 */
template <size_t kEvals, typename F, size_t N, typename Combine,
          typename Absorb>
std::vector<F>
proveRounds(const std::array<std::vector<F> *, N> &tables, Combine combine,
            Absorb absorb, std::vector<std::vector<F>> &rounds,
            const exec::ExecContext *exec = nullptr)
{
    static_assert(kEvals >= 2, "a round sends at least g(0) and g(1)");
    size_t size = tables[0]->size();
    if (size == 0 || (size & (size - 1)) != 0)
        panic("proveRounds: table size %zu not a power of two", size);
    for (const std::vector<F> *table : tables)
        if (table->size() != size)
            panic("proveRounds: mismatched table sizes");

    using Evals = std::array<F, kEvals>;
    if (exec)
        exec->setRegion("sumcheck");
    std::vector<F> point;
    for (size_t half = size / 2; half > 0; half /= 2) {
        auto chunk_evals = [&tables, &combine, half](size_t begin,
                                                     size_t end) {
            size_t m = end - begin;
            // Scratch: the tables at t >= 2, then the combine step's.
            std::vector<F> scratch(kEvals > 2 ? (N + 1) * m : 0);
            F *spare = kEvals > 2 ? scratch.data() + N * m : nullptr;
            Evals g{};
            for (size_t t = 0; t < kEvals; ++t) {
                std::array<const F *, N> at{};
                for (size_t j = 0; j < N; ++j)
                    at[j] = tables[j]->data() + begin + (t == 1 ? half : 0);
                if (t >= 2) {
                    const F t_f = F::fromUint(t);
                    for (size_t j = 0; j < N; ++j) {
                        F *f = scratch.data() + j * m;
                        std::copy(at[j], at[j] + m, f);
                        ff::foldLanes(f, at[j] + half, t_f, m);
                        at[j] = f;
                    }
                }
                g[t] = combine(at, spare, m);
            }
            return g;
        };
        Evals g = exec::reduceChunked<Evals>(
            exec, half, Evals{}, chunk_evals,
            [](const Evals &x, const Evals &y) {
                Evals sum{};
                for (size_t t = 0; t < kEvals; ++t)
                    sum[t] = x[t] + y[t];
                return sum;
            });
        F r = absorb(std::span<const F>(g));
        auto fold = [&tables, half, &r](size_t begin, size_t end) {
            for (std::vector<F> *table : tables)
                ff::foldLanes(table->data() + begin,
                              table->data() + half + begin, r,
                              end - begin);
        };
        if (exec)
            exec->parallelFor(half, fold);
        else
            fold(0, half);
        for (std::vector<F> *table : tables)
            table->resize(half);
        point.push_back(r);
        rounds.emplace_back(g.begin(), g.end());
    }
    return point;
}

/**
 * The one sum-check verifier round loop, the other side of proveRounds.
 * Every round must carry exactly kEvals values g(0), g(1), ... with
 * g(0) + g(1) equal to the running claim; @p absorb (the prover's
 * absorb step) draws the round challenge r, and the claim moves to
 * g(r) by Lagrange interpolation through t = 0 .. kEvals - 1. The
 * verdict's final_claim must still equal P at verdict.point, which the
 * caller checks with its own oracles.
 */
template <size_t kEvals, typename F, typename Rounds, typename Absorb>
SumcheckVerdict<F>
verifyRounds(const F &claimed_sum, const Rounds &rounds, Absorb absorb)
{
    std::vector<F> xs(kEvals);
    for (size_t t = 0; t < kEvals; ++t)
        xs[t] = F::fromUint(t);
    SumcheckVerdict<F> verdict;
    F claim = claimed_sum;
    for (const auto &g : rounds) {
        if (g.size() != kEvals || g[0] + g[1] != claim)
            return verdict;
        F r = absorb(std::span<const F>(g));
        claim = lagrangeEval(xs, std::vector<F>(g.begin(), g.end()), r);
        verdict.point.push_back(r);
    }
    verdict.ok = true;
    verdict.final_claim = claim;
    return verdict;
}

/** Fiat-Shamir sum-check output: the proof plus derived challenges. */
template <typename F>
struct FsSumcheck
{
    SumcheckProof<F> proof;
    std::vector<F> challenges;
};

namespace detail {

/** Algorithm 1's absorb step: pi_i1 and pi_i2 under their own labels. */
template <typename F>
auto
piAbsorber(Transcript &transcript)
{
    return [&transcript](std::span<const F> pi) {
        transcript.absorbField("sc.pi1", pi[0]);
        transcript.absorbField("sc.pi2", pi[1]);
        return transcript.template challengeField<F>("sc.r");
    };
}

} // namespace detail

/**
 * Non-interactive Algorithm 1 on the shared round loop: the combine
 * step is the half-table sum, so each round sends (pi_i1, pi_i2).
 * Challenges come from @p transcript, which must already have absorbed
 * the statement (commitment, claimed sum). With a non-null @p exec the
 * sums and folds split across host threads; proof bytes are
 * bit-identical for any thread count.
 */
template <typename F>
FsSumcheck<F>
proveSumcheckFs(const Multilinear<F> &poly, Transcript &transcript,
                const exec::ExecContext *exec = nullptr)
{
    std::vector<F> table = poly.evals();
    std::vector<std::vector<F>> rounds;
    FsSumcheck<F> out;
    out.challenges = proveRounds<2>(
        std::array{&table},
        [](const std::array<const F *, 1> &at, F *, size_t m) {
            return ff::sumLanes(at[0], m);
        },
        detail::piAbsorber<F>(transcript), rounds, exec);
    for (const auto &pi : rounds)
        out.proof.rounds.push_back({pi[0], pi[1]});
    return out;
}

/**
 * Verifier side of proveSumcheckFs: replays the transcript to derive the
 * same challenges while it runs the algebraic checks.
 */
template <typename F>
SumcheckVerdict<F>
verifySumcheckFs(const F &claimed_sum, const SumcheckProof<F> &proof,
                 Transcript &transcript)
{
    return verifyRounds<2>(claimed_sum, proof.rounds,
                           detail::piAbsorber<F>(transcript));
}

/**
 * Prove sum_x eq(x) * G(a(x), b(x), c(x)) == 0 for a custom gate G
 * (see core/GateSnark.h) on the shared round loop: round i sends eq * G
 * restricted to variable i as its values at t = 0 .. Gate::kEvals - 1.
 * The combine step runs Gate::eval into scratch, then dotLanes against
 * eq. All four tables must have the same power-of-two size; they are
 * folded in place, so on return a[0], b[0], c[0] are the tables' values
 * at the sum-check point. Challenges come from @p transcript under
 * @p labels; @p point_out accumulates them.
 */
template <typename Gate, typename F>
RoundsProof<F>
proveGateSumcheck(std::vector<F> &eq, std::vector<F> &a, std::vector<F> &b,
                  std::vector<F> &c, RoundLabels labels,
                  Transcript &transcript, std::vector<F> *point_out = nullptr,
                  const exec::ExecContext *exec = nullptr)
{
    RoundsProof<F> proof;
    std::vector<F> point = proveRounds<Gate::kEvals>(
        std::array{&eq, &a, &b, &c},
        [](const std::array<const F *, 4> &at, F *gate, size_t m) {
            Gate::eval(at[1], at[2], at[3], gate, m);
            return ff::dotLanes(at[0], gate, m);
        },
        labels.absorber<F>(transcript), proof.rounds, exec);
    if (point_out)
        point_out->insert(point_out->end(), point.begin(), point.end());
    return proof;
}

/**
 * Verifier side of proveGateSumcheck. Every round must carry exactly
 * Gate::kEvals evaluations; the returned verdict's final_claim must
 * equal eq(tau, point) * G(va, vb, vc), which the caller checks against
 * its table oracles.
 */
template <typename Gate, typename F>
SumcheckVerdict<F>
verifyGateSumcheck(const F &claimed_sum, const RoundsProof<F> &proof,
                   RoundLabels labels, Transcript &transcript)
{
    return verifyRounds<Gate::kEvals>(claimed_sum, proof.rounds,
                                      labels.absorber<F>(transcript));
}

} // namespace bzk

#endif // BZK_SUMCHECK_SUMCHECK_H_
