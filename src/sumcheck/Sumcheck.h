#ifndef BZK_SUMCHECK_SUMCHECK_H_
#define BZK_SUMCHECK_SUMCHECK_H_

/**
 * @file
 * The sum-check protocol (paper Sec. 2.3, Algorithm 1).
 *
 * proveSumcheck() is a line-for-line implementation of Algorithm 1 for a
 * multilinear polynomial: round i emits the two half-table sums
 * (pi_i1, pi_i2) and folds the table with the round challenge.
 *
 * ProductSumcheck generalizes to sums of products of up to a few
 * multilinear factors (degree-d round polynomials). The gate sum-check
 * is the SNARK core's constraint check: eq times a custom gate
 * G(a, b, c), the one round loop every gate protocol runs.
 *
 * Fiat-Shamir wrappers derive challenges from a Transcript so prover and
 * verifier stay non-interactive and in sync.
 */

#include <algorithm>
#include <array>
#include <cstddef>
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

/** Fiat-Shamir sum-check output: the proof plus derived challenges. */
template <typename F>
struct FsSumcheck
{
    SumcheckProof<F> proof;
    std::vector<F> challenges;
};

/**
 * Non-interactive Algorithm 1: challenges come from @p transcript, which
 * must already have absorbed the statement (commitment, claimed sum).
 * With a non-null @p exec each round's half-table sums run in parallel
 * chunks under a fixed-shape tree reduction and the fold splits across
 * host threads; proof bytes are bit-identical for any thread count.
 */
template <typename F>
FsSumcheck<F>
proveSumcheckFs(const Multilinear<F> &poly, Transcript &transcript,
                const exec::ExecContext *exec = nullptr)
{
    unsigned n = poly.numVars();
    FsSumcheck<F> out;
    out.proof.rounds.reserve(n);
    std::vector<F> table = poly.evals();
    if (exec)
        exec->setRegion("sumcheck");
    using Pair = std::array<F, 2>;
    for (unsigned i = 0; i < n; ++i) {
        size_t half = table.size() / 2;
        // Packed kernels keep proof bytes unchanged: a lane kernel only
        // reorders an exactly associative field sum, and the chunk
        // shape of the tree reduction is untouched.
        Pair sums = exec::reduceChunked<Pair>(
            exec, half, Pair{F::zero(), F::zero()},
            [&table, half](size_t begin, size_t end) {
                return Pair{
                    ff::sumLanes(table.data() + begin, end - begin),
                    ff::sumLanes(table.data() + half + begin,
                                 end - begin)};
            },
            [](const Pair &x, const Pair &y) {
                return Pair{x[0] + y[0], x[1] + y[1]};
            });
        transcript.absorbField("sc.pi1", sums[0]);
        transcript.absorbField("sc.pi2", sums[1]);
        F r = transcript.template challengeField<F>("sc.r");
        auto fold = [&table, half, &r](size_t begin, size_t end) {
            ff::foldLanes(table.data() + begin,
                          table.data() + half + begin, r, end - begin);
        };
        if (exec)
            exec->parallelFor(half, fold);
        else
            fold(0, half);
        table.resize(half);
        out.proof.rounds.push_back({sums[0], sums[1]});
        out.challenges.push_back(r);
    }
    return out;
}

/**
 * Verifier side of proveSumcheckFs: replays the transcript to derive the
 * same challenges, then runs the algebraic checks.
 */
template <typename F>
SumcheckVerdict<F>
verifySumcheckFs(const F &claimed_sum, const SumcheckProof<F> &proof,
                 Transcript &transcript)
{
    std::vector<F> challenges;
    challenges.reserve(proof.rounds.size());
    for (const auto &round : proof.rounds) {
        transcript.absorbField("sc.pi1", round[0]);
        transcript.absorbField("sc.pi2", round[1]);
        challenges.push_back(transcript.template challengeField<F>("sc.r"));
    }
    return verifySumcheck(claimed_sum, proof, challenges);
}

/**
 * Proof for a sum of products of multilinear factors. Round i carries
 * the round polynomial g_i evaluated at 0, 1, ..., d where d is the
 * number of factors.
 */
template <typename F>
struct ProductSumcheckProof
{
    std::vector<std::vector<F>> rounds;
};

/**
 * Prove sum_{x in {0,1}^n} prod_j factors[j](x) == (implicit claim).
 * Challenges come from @p transcript. On return @p factors have been
 * fully folded; factors[j].evals()[0] is factor j's value at the final
 * point, which the caller typically needs for the outer protocol.
 */
template <typename F>
ProductSumcheckProof<F>
proveProductSumcheckFs(std::vector<Multilinear<F>> &factors,
                       Transcript &transcript,
                       std::vector<F> *point_out = nullptr,
                       const exec::ExecContext *exec = nullptr)
{
    if (factors.empty())
        panic("proveProductSumcheckFs: no factors");
    unsigned n = factors[0].numVars();
    for (const auto &f : factors)
        if (f.numVars() != n)
            panic("proveProductSumcheckFs: mismatched factor sizes");
    size_t degree = factors.size();

    if (exec)
        exec->setRegion("sumcheck");
    ProductSumcheckProof<F> proof;
    proof.rounds.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        size_t half = factors[0].evals().size() / 2;
        // g(t) for t = 0 .. degree: evaluate each factor at
        // (1-t)*lo + t*hi and accumulate the product. Fixed-shape
        // chunk reduction keeps the sums thread-count independent.
        // Per chunk the factor interpolation is itself a fold
        // (lo + t*(hi - lo)), so the whole evaluation runs on the
        // packed kernels over chunk-sized scratch; the final sum per t
        // is exact-field associative and reorders freely.
        std::vector<F> identity(degree + 1, F::zero());
        std::vector<F> g = exec::reduceChunked<std::vector<F>>(
            exec, half, identity,
            [&factors, &identity, half, degree](size_t begin, size_t end) {
                size_t m = end - begin;
                std::vector<F> acc = identity;
                std::vector<F> term(m), at_t(m);
                for (size_t t = 0; t <= degree; ++t) {
                    F t_f = F::fromUint(t);
                    for (size_t j = 0; j < factors.size(); ++j) {
                        const F *lo = factors[j].evals().data() + begin;
                        const F *hi = lo + half;
                        if (j == 0) {
                            std::copy(lo, lo + m, term.begin());
                            ff::foldLanes(term.data(), hi, t_f, m);
                            continue;
                        }
                        std::copy(lo, lo + m, at_t.begin());
                        ff::foldLanes(at_t.data(), hi, t_f, m);
                        ff::mulLanes(term.data(), at_t.data(),
                                     term.data(), m);
                    }
                    acc[t] += ff::sumLanes(term.data(), m);
                }
                return acc;
            },
            [degree](const std::vector<F> &x, const std::vector<F> &y) {
                std::vector<F> sum(degree + 1);
                for (size_t t = 0; t <= degree; ++t)
                    sum[t] = x[t] + y[t];
                return sum;
            });
        for (size_t t = 0; t <= degree; ++t)
            transcript.absorbField("psc.g", g[t]);
        F r = transcript.template challengeField<F>("psc.r");
        for (auto &f : factors) {
            auto &tab = f.evals();
            auto fold = [&tab, half, &r](size_t begin, size_t end) {
                ff::foldLanes(tab.data() + begin,
                              tab.data() + half + begin, r,
                              end - begin);
            };
            if (exec)
                exec->parallelFor(half, fold);
            else
                fold(0, half);
            tab.resize(half);
            // Rewrap keeps the invariant table-size == power of two.
            f = Multilinear<F>(std::move(tab));
        }
        if (point_out)
            point_out->push_back(r);
        proof.rounds.push_back(std::move(g));
    }
    return proof;
}

/**
 * Verify a product sum-check. Returns the verdict whose final_claim must
 * equal prod_j factors[j](point) — checked by the caller with whatever
 * oracle it has for the factors.
 */
template <typename F>
SumcheckVerdict<F>
verifyProductSumcheckFs(const F &claimed_sum,
                        const ProductSumcheckProof<F> &proof,
                        Transcript &transcript)
{
    SumcheckVerdict<F> verdict;
    F claim = claimed_sum;
    for (const auto &g : proof.rounds) {
        if (g.size() < 2)
            return verdict;
        if (g[0] + g[1] != claim)
            return verdict;
        for (const F &gi : g)
            transcript.absorbField("psc.g", gi);
        F r = transcript.template challengeField<F>("psc.r");
        // Interpolate the degree-d round polynomial through 0..d at r.
        std::vector<F> xs(g.size());
        for (size_t t = 0; t < g.size(); ++t)
            xs[t] = F::fromUint(t);
        claim = lagrangeEval(xs, g, r);
        verdict.point.push_back(r);
    }
    verdict.ok = true;
    verdict.final_claim = claim;
    return verdict;
}

/** Transcript labels of a gate sum-check's round messages. */
struct RoundLabels
{
    /** Label of each round-polynomial evaluation. */
    const char *g;
    /** Label of each round challenge. */
    const char *r;
};

/**
 * Prove sum_x eq(x) * G(a(x), b(x), c(x)) == 0 for a custom gate G
 * (see core/GateSnark.h): round i sends eq * G restricted to variable i
 * as its values at t = 0 .. Gate::kEvals - 1. All four tables must
 * have the same power-of-two size; they are folded in place, so on
 * return a[0], b[0], c[0] are the tables' values at the sum-check
 * point. Challenges come from @p transcript under @p labels; @p
 * point_out accumulates them.
 *
 * Each factor restricted to the round variable is affine, so its value
 * at t is the fold lo + t * (hi - lo), and t = 0, 1 are the table
 * halves themselves. Per chunk the factors at t live in chunk-sized
 * scratch, so the whole round runs on the lane kernels: foldLanes for
 * the factors, Gate::eval, then dotLanes against eq. The fixed-shape
 * chunk reduction keeps the sums, and so the proof bytes, identical
 * for any thread count and kernel backend.
 */
template <typename Gate, typename F>
ProductSumcheckProof<F>
proveGateSumcheck(std::vector<F> &eq, std::vector<F> &a, std::vector<F> &b,
                  std::vector<F> &c, RoundLabels labels,
                  Transcript &transcript, std::vector<F> *point_out = nullptr,
                  const exec::ExecContext *exec = nullptr)
{
    size_t size = eq.size();
    if (size == 0 || (size & (size - 1)) != 0)
        panic("proveGateSumcheck: table size %zu not a power of two", size);
    if (a.size() != size || b.size() != size || c.size() != size)
        panic("proveGateSumcheck: mismatched table sizes");

    const std::array<std::vector<F> *, 4> tables{&eq, &a, &b, &c};
    using Evals = std::array<F, Gate::kEvals>;
    if (exec)
        exec->setRegion("sumcheck");
    ProductSumcheckProof<F> proof;
    for (size_t half = size / 2; half > 0; half /= 2) {
        auto chunk_evals = [&tables, half](size_t begin, size_t end) {
            size_t m = end - begin;
            // Scratch: eq, a, b, c at t, then the gate values.
            std::vector<F> scratch(5 * m);
            F *gate = scratch.data() + 4 * m;
            Evals g{};
            for (size_t t = 0; t < Gate::kEvals; ++t) {
                const F t_f = F::fromUint(t);
                std::array<const F *, 4> at{};
                for (size_t j = 0; j < tables.size(); ++j) {
                    const F *lo = tables[j]->data() + begin;
                    if (t < 2) {
                        at[j] = lo + t * half;
                        continue;
                    }
                    F *f = scratch.data() + j * m;
                    std::copy(lo, lo + m, f);
                    ff::foldLanes(f, lo + half, t_f, m);
                    at[j] = f;
                }
                Gate::eval(at[1], at[2], at[3], gate, m);
                g[t] = ff::dotLanes(at[0], gate, m);
            }
            return g;
        };
        Evals g = exec::reduceChunked<Evals>(
            exec, half, Evals{}, chunk_evals,
            [](const Evals &x, const Evals &y) {
                Evals sum{};
                for (size_t t = 0; t < Gate::kEvals; ++t)
                    sum[t] = x[t] + y[t];
                return sum;
            });
        for (const F &gt : g)
            transcript.absorbField(labels.g, gt);
        F r = transcript.template challengeField<F>(labels.r);
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
        if (point_out)
            point_out->push_back(r);
        proof.rounds.emplace_back(g.begin(), g.end());
    }
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
verifyGateSumcheck(const F &claimed_sum, const ProductSumcheckProof<F> &proof,
                   RoundLabels labels, Transcript &transcript)
{
    SumcheckVerdict<F> verdict;
    std::vector<F> xs(Gate::kEvals);
    for (size_t t = 0; t < Gate::kEvals; ++t)
        xs[t] = F::fromUint(t);
    F claim = claimed_sum;
    for (const auto &g : proof.rounds) {
        if (g.size() != Gate::kEvals || g[0] + g[1] != claim)
            return verdict;
        for (const F &gt : g)
            transcript.absorbField(labels.g, gt);
        F r = transcript.template challengeField<F>(labels.r);
        claim = lagrangeEval(xs, g, r);
        verdict.point.push_back(r);
    }
    verdict.ok = true;
    verdict.final_claim = claim;
    return verdict;
}

} // namespace bzk

#endif // BZK_SUMCHECK_SUMCHECK_H_
