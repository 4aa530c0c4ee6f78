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

#include <cstddef>
#include <cstdint>
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
        ff::foldLanes(table.data(), table.data() + half, r, half);
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
        std::vector<F> folded(evals_.begin(), evals_.begin() + half);
        ff::foldLanes(folded.data(), evals_.data() + half, r, half);
        return Multilinear(std::move(folded));
    }

  private:
    std::vector<F> evals_;
};

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
    // A step costs one lane multiply per entry: hi = lo * r_i into the
    // still-zero upper half, then lo -= hi leaves lo * (1 - r_i).
    size_t half = 1;
    for (auto it = r.rbegin(); it != r.rend(); ++it, half *= 2) {
        F *lo = table.data();
        ff::axpyLanes(lo + half, lo, *it, half);
        ff::subLanes(lo, lo + half, lo, half);
    }
    return table;
}

/**
 * eq(r, x) at one point, without the table:
 * prod_i ((1 - r_i)(1 - x_i) + r_i x_i).
 */
template <typename F>
F
eqEval(const std::vector<F> &r, const std::vector<F> &x)
{
    if (r.size() != x.size())
        panic("eqEval: %zu vs %zu variables", r.size(), x.size());
    F acc = F::one();
    for (size_t i = 0; i < r.size(); ++i)
        acc *= (F::one() - r[i]) * (F::one() - x[i]) + r[i] * x[i];
    return acc;
}

/**
 * Lagrange interpolation of the unique degree-(k-1) univariate polynomial
 * through points (xs[i], ys[i]), evaluated at @p x. Used by the system to
 * encode host-side intermediate results into polynomials (Sec. 4).
 */
template <typename F>
F
lagrangeEval(const std::vector<F> &xs, const std::vector<F> &ys, const F &x)
{
    if (xs.size() != ys.size())
        panic("lagrangeEval: mismatched point count");
    // One batched inversion replaces k Fermat inversions. The xs are
    // required distinct (otherwise a denominator is zero and the
    // interpolant ill-defined), so every entry inverts.
    std::vector<F> dens(xs.size(), F::one());
    for (size_t i = 0; i < xs.size(); ++i)
        for (size_t j = 0; j < xs.size(); ++j)
            if (j != i)
                dens[i] *= xs[i] - xs[j];
    if (ff::batchInverse(dens.data(), dens.size()) != dens.size())
        panic("lagrangeEval: repeated interpolation node");
    F acc = F::zero();
    for (size_t i = 0; i < xs.size(); ++i) {
        F num = F::one();
        for (size_t j = 0; j < xs.size(); ++j)
            if (j != i)
                num *= x - xs[j];
        acc += ys[i] * num * dens[i];
    }
    return acc;
}

} // namespace bzk

#endif // BZK_POLY_MULTILINEAR_H_
