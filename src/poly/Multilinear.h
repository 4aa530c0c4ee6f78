#ifndef BZK_POLY_MULTILINEAR_H_
#define BZK_POLY_MULTILINEAR_H_

/**
 * @file
 * Multilinear polynomials over the Boolean hypercube.
 *
 * A multilinear polynomial in n variables is represented by its 2^n
 * evaluations over {0,1}^n — exactly the "table A" of the paper's
 * Algorithm 1. Index b encodes the point (b_1, ..., b_n) with
 * b = sum b_i 2^{i-1}, i.e. variable x_1 is the least-significant bit.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ff/FieldBackend.h"
#include "util/Log.h"
#include "util/Rng.h"

namespace bzk {

/**
 * The value at (r_1, ..., r_n) of the multilinear polynomial with
 * evaluation @p table, by n rounds of folding it in place:
 * A'[b] = (1 - r_i) A[b] + r_i A[b + half]. Takes the table by value,
 * so a caller that keeps its table pays exactly one copy.
 */
template <typename F>
F
evaluateTable(std::vector<F> table, const std::vector<F> &point)
{
    if (point.size() >= 64 || table.size() != size_t{1} << point.size())
        panic("evaluateTable: %zu coords for a table of %zu", point.size(),
              table.size());
    size_t half = table.size() / 2;
    for (const F &r : point) {
        ff::foldLanes(table.data(), table.data(), table.data() + half, r,
                      half);
        half /= 2;
    }
    return table[0];
}

/**
 * Dense multilinear polynomial given by its hypercube evaluation table.
 *
 * @tparam F field type (Fr).
 */
template <typename F>
class Multilinear
{
  public:
    Multilinear() = default;

    /** Wrap an evaluation table; size must be a power of two. */
    explicit Multilinear(std::vector<F> evals) : evals_(std::move(evals))
    {
        if (evals_.empty() || (evals_.size() & (evals_.size() - 1)))
            panic("Multilinear: table size %zu not a power of two",
                  evals_.size());
    }

    /** Uniformly random polynomial with 2^n entries. */
    static Multilinear
    random(unsigned n, Rng &rng)
    {
        std::vector<F> evals(size_t{1} << n);
        for (auto &e : evals)
            e = F::random(rng);
        return Multilinear(std::move(evals));
    }

    /** Number of variables n. */
    unsigned
    numVars() const
    {
        unsigned n = 0;
        while ((size_t{1} << n) < evals_.size())
            ++n;
        return n;
    }

    /** The evaluation table (size 2^n). */
    const std::vector<F> &evals() const { return evals_; }

    /** Mutable access to the evaluation table. */
    std::vector<F> &evals() { return evals_; }

    /** Sum of the polynomial over the whole hypercube. */
    F
    sumOverHypercube() const
    {
        return ff::sumLanes(evals_.data(), evals_.size());
    }

    /** Evaluate at an arbitrary point (r_1, ..., r_n): evaluateTable. */
    F
    evaluate(const std::vector<F> &point) const
    {
        return evaluateTable(evals_, point);
    }

    /**
     * Fix the first variable x_1 := r, producing an (n-1)-variable
     * polynomial — one round of Algorithm 1's update.
     *
     * Note Algorithm 1 folds on the *most*-significant bit: entry b pairs
     * with b + 2^{n-i}. We follow that exact order so proofs match the
     * paper's round structure; evaluate() above mirrors it.
     */
    Multilinear
    fixVariable(const F &r) const
    {
        size_t half = evals_.size() / 2;
        std::vector<F> folded(half);
        ff::foldLanes(folded.data(), evals_.data(), evals_.data() + half, r,
                      half);
        return Multilinear(std::move(folded));
    }

  private:
    std::vector<F> evals_;
};

namespace detail {

/**
 * One doubling step of an eq table: from the @p half entries at @p in,
 * out[b + half] = in[b] * r, then out[b] = in[b] - out[b + half], which
 * is in[b] * (1 - r). One lane multiply per entry. out[half, 2 half)
 * must be zero on entry; @p out may be @p in.
 */
template <typename F>
void
eqDouble(const F *in, F *out, const F &r, size_t half)
{
    ff::axpyLanes(out + half, in, r, half);
    ff::subLanes(in, out + half, out, half);
}

} // namespace detail

/**
 * eq(r, x): the multilinear extension of equality. Returns the table of
 * eq(r, b) for all b in {0,1}^n, with the same bit order as Multilinear
 * (variable i paired with bit 2^{n-i} to match Algorithm 1 folding).
 */
template <typename F>
std::vector<F>
eqTable(const std::vector<F> &r)
{
    std::vector<F> table(size_t{1} << r.size());
    table[0] = F::one();
    // Each doubling step makes the newly-processed variable control the
    // current top bit. Processing r back-to-front therefore leaves r[0]
    // on the most-significant bit, matching evaluate()'s fold order.
    size_t half = 1;
    for (auto it = r.rbegin(); it != r.rend(); ++it, half *= 2)
        detail::eqDouble(table.data(), table.data(), *it, half);
    return table;
}

/**
 * The suffix tables eq(tau_>i, .) of every sum-check round i, written
 * into @p weights, resized to 2^n entries for n = tau.size(). The
 * 2^k-entry table, eqTable of tau's last k entries, sits at
 * [2^k, 2^(k+1)); entry 0 is unused. These are eqTable(tau)'s
 * intermediate stages, built by the same one-multiply doubling step,
 * each kept in its own slot. Every slot is rewritten, so a buffer
 * reused from an earlier call needs no clearing.
 */
template <typename F>
void
eqSuffixWeights(const std::vector<F> &tau, std::vector<F> &weights)
{
    weights.resize(size_t{1} << tau.size());
    if (tau.empty())
        return;
    weights[1] = F::one();
    size_t half = 1;
    for (auto it = tau.rbegin(); it + 1 != tau.rend(); ++it, half *= 2) {
        // eqDouble accumulates into the upper half of its output.
        std::fill_n(weights.data() + 3 * half, half, F::zero());
        detail::eqDouble(weights.data() + half, weights.data() + 2 * half,
                         *it, half);
    }
}

/**
 * eq(r, x) in one variable, (1 - r)(1 - x) + r x, written as
 * (1 - r) + x (2r - 1): affine in x with one multiply.
 */
template <typename F>
F
eqLinear(const F &r, const F &x)
{
    return F::one() - r + x * (r.dbl() - F::one());
}

/** eq(r, x) at one point, without the table: prod_i eqLinear(r_i, x_i). */
template <typename F>
F
eqEval(const std::vector<F> &r, const std::vector<F> &x)
{
    if (r.size() != x.size())
        panic("eqEval: %zu vs %zu variables", r.size(), x.size());
    F acc = F::one();
    for (size_t i = 0; i < r.size(); ++i)
        acc *= eqLinear(r[i], x[i]);
    return acc;
}

/**
 * Lagrange interpolation through fixed distinct nodes xs[0 .. k): the
 * unique polynomial of degree below k through (xs[i], ys[i]),
 * evaluated at any x. The constructor inverts the k denominators
 * prod_{j != i} (xs[i] - xs[j]) with one batched inversion, so each
 * eval() is O(k) multiplies and no inversion. Its numerators
 * prod_{j != i} (x - xs[j]) come from prefix and suffix products, with
 * no division by x - xs[i], so x may be a node. The sum-check verifier
 * moves each round's claim with it.
 */
template <typename F>
class LagrangeBasis
{
  public:
    explicit LagrangeBasis(std::vector<F> xs)
        : xs_(std::move(xs)), inv_dens_(xs_.size(), F::one())
    {
        for (size_t i = 0; i < xs_.size(); ++i)
            for (size_t j = 0; j < xs_.size(); ++j)
                if (j != i)
                    inv_dens_[i] *= xs_[i] - xs_[j];
        if (ff::batchInverse(inv_dens_.data(), inv_dens_.size()) !=
            inv_dens_.size())
            panic("LagrangeBasis: repeated interpolation node");
    }

    /** The interpolant through (xs[i], @p ys[i]) at @p x. */
    F
    eval(std::span<const F> ys, const F &x) const
    {
        size_t k = xs_.size();
        if (ys.size() != k)
            panic("LagrangeBasis: %zu values for %zu nodes", ys.size(), k);
        // suffix[i] = prod_{j >= i} (x - xs[j]).
        std::vector<F> suffix(k + 1, F::one());
        for (size_t j = k; j-- > 0;)
            suffix[j] = suffix[j + 1] * (x - xs_[j]);
        F prefix = F::one(); // prod_{j < i} (x - xs[j])
        F acc = F::zero();
        for (size_t i = 0; i < k; ++i) {
            acc += ys[i] * inv_dens_[i] * prefix * suffix[i + 1];
            prefix *= x - xs_[i];
        }
        return acc;
    }

  private:
    std::vector<F> xs_;
    /** 1 / prod_{j != i} (xs[i] - xs[j]). */
    std::vector<F> inv_dens_;
};

} // namespace bzk

#endif // BZK_POLY_MULTILINEAR_H_
