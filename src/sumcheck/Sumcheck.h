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
 * supplies the tables, the buffers they fold into, a chunk step that
 * returns every round sum of a chunk of rows in one call, and the
 * absorb step that binds each round message into its transcript. The
 * loop folds each table once per round, after the challenge; it never
 * writes the tables, so a prover need not copy what it also commits
 * to. The four callers: proveSumcheckFs (Algorithm 1), the gate
 * sum-check (eq times a custom gate G(a, b, c), core/GateSnark.h),
 * FullSnark's phase 2 (M times z) and GKR's layer rounds (V times C
 * plus D). The gate sum-check's chunk step is one fused kernel pass
 * (ff::gateSumsLanes); the others build theirs with steppedSums(),
 * which steps each table across the round's points by addition and
 * sums each point with a combine step on the lane kernels. The gate
 * sum-check also passes the unfolded suffix weights eq(tau_>i, .) and
 * a finish step that scales its weighted sums into the round message,
 * so eq(tau, x) is never folded (Gruen, ePrint 2024/108).
 */

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
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
        ff::foldLanes(table.data(), table.data(), table.data() + half,
                      challenges[i], half);
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
 * proveRounds' default finish step: a round's message is its reduced
 * sums g(0), ..., g(kPoints - 1) as they are.
 */
struct SendSums
{
    template <typename F, size_t kPoints>
    std::vector<F>
    operator()(const std::array<F, kPoints> &sums, std::span<const F>) const
    {
        return {sums.begin(), sums.end()};
    }
};

/**
 * proveRounds' chunk step built from a combine step that sums one
 * point, for the callers without a fused kernel. Each table restricted
 * to the round variable is affine, so its value at t is
 * lo + t * (hi - lo): at t = 0 and t = 1 the table halves themselves;
 * per chunk the slope hi - lo is taken once, t = 2 is hi plus the
 * slope, and each later t adds the slope in place, all in chunk
 * scratch. @p combine maps those values to the chunk's sum at t on the
 * lane kernels,
 *
 *   F combine(const std::array<const F *, N> &at, const F *w,
 *             F *scratch, size_t m)
 *
 * over rows at[j][0 .. m), where @p w is the chunk's slice of the
 * round's weights (nullptr without weights) and @p scratch holds m
 * values it may overwrite (none when kPoints == 2).
 */
template <size_t kPoints, typename Combine>
auto
steppedSums(Combine combine)
{
    static_assert(kPoints >= 2, "a round sums at least g(0) and g(1)");
    return [combine]<typename F, size_t N>(
               const std::array<const F *, N> &lo, size_t half, const F *w,
               size_t m) {
        // Scratch: each table's slope hi - lo, then its value at the
        // current t >= 2, then the combine step's. One buffer per
        // thread, grown to the largest chunk and kept: every entry is
        // written before it is read.
        thread_local std::vector<F> scratch;
        if (kPoints > 2 && scratch.size() < (2 * N + 1) * m)
            scratch.resize((2 * N + 1) * m);
        F *spare = kPoints > 2 ? scratch.data() + 2 * N * m : nullptr;
        std::array<F, kPoints> g{};
        std::array<const F *, N> at{};
        for (size_t t = 0; t < kPoints; ++t) {
            for (size_t j = 0; j < N; ++j) {
                const F *hi = lo[j] + half;
                F *slope = scratch.data() + j * m;
                F *step = scratch.data() + (N + j) * m;
                if (t == 0) {
                    at[j] = lo[j];
                } else if (t == 1) {
                    at[j] = hi;
                } else if (t == 2) {
                    ff::subLanes(hi, lo[j], slope, m);
                    ff::addLanes(hi, slope, step, m);
                    at[j] = step;
                } else {
                    ff::addLanes(step, slope, step, m);
                }
            }
            g[t] = combine(at, w, spare, m);
        }
        return g;
    };
}

/**
 * The one Fiat-Shamir sum-check prover round loop (Algorithm 1: one
 * kernel per round, then a tree reduction of the round sums). It proves
 * sum_x w(x) * P(T_0(x), ..., T_{N-1}(x)) for @p tables of one
 * power-of-two size and a polynomial P of degree kPoints - 1 in each
 * variable; the weight w is 1 unless the caller passes @p weights.
 *
 * The loop reads the tables and writes only the buffers: table j
 * folds into @p folded[j]. Round 0 reads the tables themselves and
 * folds each table's two halves straight into its buffer, and every
 * later round folds the buffers in place. A caller that owns a table
 * and needs it no more passes the same vector as both, and it folds in
 * place from round 0; a caller that keeps its buffers across proofs
 * reuses their storage. A buffer that is not its table's storage is
 * grown to half the table's size only when it is shorter, so one kept
 * across proofs keeps its storage; it must not overlap a table. On
 * return each buffer's entry 0 holds its table's value at the
 * sum-check point; the rest is scratch.
 *
 * Round i reduces sums at t = 0 .. kPoints - 1 over fixed-shape
 * chunks of rows. No table is folded until the challenge is drawn.
 * @p step returns one chunk's sums in one call,
 *
 *   std::array<F, kPoints> step(const std::array<const F *, N> &lo,
 *                               size_t half, const F *w, size_t m),
 *
 * for rows x < m whose table j is lo[j][x] at t = 0 and
 * lo[j][half + x] at t = 1, and whose weight is w[x] (@p w is nullptr
 * without @p weights); kPoints is the size of that array.
 * steppedSums() builds a step from a per-point combine step.
 *
 * @p weights, when not empty, holds one unfolded weight table per
 * round in the eqSuffixWeights layout: round i, whose tables have
 * 2 * half entries, reads the half-entry table at [half, 2 * half). It
 * is read, never folded. @p finish,
 *
 *   std::vector<F> finish(const std::array<F, kPoints> &sums,
 *                         std::span<const F> point),
 *
 * maps round i's reduced sums to its message, given the challenges
 * r_0 .. r_{i-1} drawn so far; the default sends the sums. @p absorb,
 *
 *   F absorb(std::span<const F> g),
 *
 * binds the round message into the transcript and returns the round
 * challenge. The fixed-shape chunk reduction keeps the sums, and so the
 * proof bytes, identical for any thread count and kernel backend.
 * Appends each round's message to @p rounds; returns the challenges.
 */
template <typename F, size_t N, typename Step, typename Absorb,
          typename Finish = SendSums>
std::vector<F>
proveRounds(const std::array<std::span<const F>, N> &tables,
            const std::array<std::vector<F> *, N> &folded, Step step,
            Absorb absorb, std::vector<std::vector<F>> &rounds,
            const exec::ExecContext *exec = nullptr,
            std::span<const std::type_identity_t<F>> weights = {},
            Finish finish = {})
{
    using Sums = std::invoke_result_t<Step &, const std::array<const F *, N> &,
                                      size_t, const F *, size_t>;
    constexpr size_t kPoints = std::tuple_size_v<Sums>;
    static_assert(kPoints >= 2, "a round sums at least g(0) and g(1)");
    size_t size = tables[0].size();
    if (size == 0 || (size & (size - 1)) != 0)
        panic("proveRounds: table size %zu not a power of two", size);
    for (std::span<const F> table : tables)
        if (table.size() != size)
            panic("proveRounds: mismatched table sizes");
    if (!weights.empty() && weights.size() != size)
        panic("proveRounds: %zu weights for tables of %zu", weights.size(),
              size);

    // Each round reads lo from src[j][0, half) and hi from
    // src[j][half, 2 * half): the tables in round 0, the buffers after.
    // A buffer that is not its table's storage grows to fit round 0,
    // which folds the table into it, or takes the one entry when no
    // round runs.
    std::array<const F *, N> src{};
    for (size_t j = 0; j < N; ++j) {
        src[j] = tables[j].data();
        if (folded[j]->data() == src[j])
            continue;
        if (size == 1)
            folded[j]->assign(src[j], src[j] + 1);
        else if (folded[j]->size() < size / 2)
            folded[j]->resize(size / 2);
    }

    if (exec)
        exec->setRegion("sumcheck");
    std::vector<F> point;
    for (size_t half = size / 2; half > 0; half /= 2) {
        const F *w = weights.empty() ? nullptr : weights.data() + half;
        auto chunk_sums = [&src, &step, w, half](size_t begin, size_t end) {
            std::array<const F *, N> lo{};
            for (size_t j = 0; j < N; ++j)
                lo[j] = src[j] + begin;
            return step(lo, half, w ? w + begin : nullptr, end - begin);
        };
        Sums sums = exec::reduceChunked<Sums>(
            exec, half, Sums{}, chunk_sums, [](const Sums &x, const Sums &y) {
                Sums sum{};
                for (size_t t = 0; t < kPoints; ++t)
                    sum[t] = x[t] + y[t];
                return sum;
            });
        std::vector<F> message = finish(sums, std::span<const F>(point));
        F r = absorb(std::span<const F>(message));
        auto fold = [&src, &folded, half, &r](size_t begin, size_t end) {
            for (size_t j = 0; j < N; ++j)
                ff::foldLanes(folded[j]->data() + begin, src[j] + begin,
                              src[j] + half + begin, r, end - begin);
        };
        if (exec)
            exec->parallelFor(half, fold);
        else
            fold(0, half);
        for (size_t j = 0; j < N; ++j)
            src[j] = folded[j]->data();
        point.push_back(r);
        rounds.push_back(std::move(message));
    }
    return point;
}

/**
 * The one sum-check verifier round loop, the other side of proveRounds.
 * Every round must carry exactly kEvals values g(0), g(1), ... with
 * g(0) + g(1) equal to the running claim; @p absorb (the prover's
 * absorb step) draws the round challenge r, and the claim moves to
 * g(r) by Lagrange interpolation through t = 0 .. kEvals - 1 (one
 * LagrangeBasis per call, so no round inverts). The verdict's
 * final_claim must still equal P at verdict.point, which the caller
 * checks with its own oracles.
 */
template <size_t kEvals, typename F, typename Rounds, typename Absorb>
SumcheckVerdict<F>
verifyRounds(const F &claimed_sum, const Rounds &rounds, Absorb absorb)
{
    std::vector<F> xs(kEvals);
    for (size_t t = 0; t < kEvals; ++t)
        xs[t] = F::fromUint(t);
    const LagrangeBasis<F> basis(std::move(xs));
    SumcheckVerdict<F> verdict;
    F claim = claimed_sum;
    for (const auto &g : rounds) {
        if (g.size() != kEvals || g[0] + g[1] != claim)
            return verdict;
        F r = absorb(std::span<const F>(g));
        claim = basis.eval(std::span<const F>(g), r);
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
    std::vector<F> folded;
    std::vector<std::vector<F>> rounds;
    FsSumcheck<F> out;
    out.challenges = proveRounds(
        {poly.evals()}, std::array{&folded},
        steppedSums<2>([](const std::array<const F *, 1> &at, const F *, F *,
                          size_t m) { return ff::sumLanes(at[0], m); }),
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
 * Prove sum_x eq(tau, x) * G(a(x), b(x), c(x)) == 0 for the custom
 * gate G = a^K * b - c, K = Gate::kPower (see core/GateSnark.h), on
 * the shared round loop, with eq(tau, x) split (Gruen, ePrint
 * 2024/108) and never folded. In round i,
 *
 *   g_i(t) = s_i * eq(tau_i, t) * h_i(t),
 *   h_i(t) = sum_x' eq(tau_>i, x') * G(a, b, c)(t, x'),
 *
 * with s_i = prod_{j<i} eq(tau_j, r_j). The loop sums h_i at
 * t = 0 .. deg G against the unfolded suffix weights (eqSuffixWeights):
 * the chunk step is ff::gateSumsLanes, every point of a chunk in one
 * pass with no scratch. The finish step extrapolates h_i(deg G + 1)
 * and multiplies each h_i(t) by s_i * eq(tau_i, t), so round i sends
 * g_i(0), ..., g_i(Gate::kEvals - 1) as the exact sums over eq * G, on
 * any input. h_i(1) is summed, not derived from the running claim:
 * g(0) + g(1) equals the claim only on a satisfied instance, and a
 * prover that assumed it would send passing rounds for an unsatisfied
 * one. @p tau has one entry per variable. The tables a, b, c fold
 * into @p folded as proveRounds describes, so on return folded[0][0],
 * folded[1][0], folded[2][0] are their values at the sum-check point.
 * @p weights receives the suffix weights. A prover that keeps
 * @p folded and @p weights across proofs allocates neither again.
 *
 * @p rows, when not empty, are three buffers of one power-of-two
 * length m, 1 < m < 2^n: when the folded tables reach m entries,
 * after log2(2^n / m) rounds with challenges r_row, each is copied
 * into its buffer. The rounds fold the most significant index bit
 * first, so each copy is sum_row eq(r_row)[row] * table[row * m + .]
 * in eqTable's bit order: the tensor PCS's evaluation row of a table
 * laid out as rows of m (TensorPcs::open). Challenges come from
 * @p transcript under @p labels; @p point_out accumulates them.
 */
template <typename Gate, typename F>
RoundsProof<F>
proveGateSumcheck(const std::vector<F> &tau,
                  const std::array<std::span<const F>, 3> &tables,
                  const std::array<std::vector<F> *, 3> &folded,
                  std::vector<F> &weights, RoundLabels labels,
                  Transcript &transcript,
                  std::vector<std::type_identity_t<F>> *point_out = nullptr,
                  const exec::ExecContext *exec = nullptr,
                  const std::array<std::span<F>, 3> &rows = {})
{
    size_t size = tables[0].size();
    if (tau.size() >= 64 || size != size_t{1} << tau.size())
        panic("proveGateSumcheck: %zu tau entries for tables of %zu",
              tau.size(), size);
    size_t m = rows[0].size();
    if (m != 0 && (m < 2 || 2 * m > size || (m & (m - 1)) != 0 ||
                   rows[1].size() != m || rows[2].size() != m))
        panic("proveGateSumcheck: rows of %zu for tables of %zu", m, size);
    // h_i has degree deg G = Gate::kEvals - 2, so deg G + 1 sums fix it.
    constexpr size_t kPoints = Gate::kEvals - 1;
    constexpr size_t kDeg = kPoints - 1;
    static_assert(kPoints == Gate::kPower + 2, "deg G = K + 1");
    F s = F::one();
    auto finish = [&](const std::array<F, kPoints> &h,
                      std::span<const F> point) {
        size_t i = point.size();
        // Round i >= 1 starts from tables of size >> i entries, the
        // first of each buffer.
        if (m != 0 && size >> i == m)
            for (size_t j = 0; j < 3; ++j)
                std::copy_n(folded[j]->begin(), m, rows[j].begin());
        if (i > 0)
            s *= eqLinear(tau[i - 1], point[i - 1]);
        // The (deg G + 1)-th finite difference of h vanishes:
        // h(d + 1) = sum_j (-1)^(d - j) C(d + 1, j) h(j), d = deg G.
        F next = F::zero();
        uint64_t binom = 1; // C(d + 1, j)
        for (size_t j = 0; j <= kDeg; ++j) {
            F term = F::fromUint(binom) * h[j];
            next = (kDeg - j) % 2 ? next - term : next + term;
            binom = binom * (kDeg + 1 - j) / (j + 1);
        }
        std::vector<F> g(Gate::kEvals);
        for (size_t t = 0; t < Gate::kEvals; ++t)
            g[t] = s * eqLinear(tau[i], F::fromUint(t)) *
                   (t < kPoints ? h[t] : next);
        return g;
    };
    eqSuffixWeights(tau, weights);
    RoundsProof<F> proof;
    std::vector<F> point = proveRounds(
        tables, folded,
        [](const std::array<const F *, 3> &lo, size_t half, const F *w,
           size_t n) {
            return ff::gateSumsLanes<Gate::kPower>(lo[0], lo[1], lo[2], half,
                                                   w, n);
        },
        labels.absorber<F>(transcript), proof.rounds, exec, weights, finish);
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
