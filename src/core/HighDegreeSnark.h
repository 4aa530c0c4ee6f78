#ifndef BZK_CORE_HIGHDEGREESNARK_H_
#define BZK_CORE_HIGHDEGREESNARK_H_

/**
 * @file
 * The high-degree gate protocol (sched::ProtocolKind::HighDegreeGate):
 * the gate SNARK of core/GateSnark.h over a HyperPlonk-style custom
 * gate, proving
 *
 *   sum_x eq(tau,x) * (a(x)^4 * b(x) - c(x)) = 0
 *
 * with degree-6 round polynomials. Each evaluation point costs three
 * more multiplications than the multiplicative gate, which shifts the
 * module cost mix toward the sum-check stage: the workload shape
 * zkSpeed/zkPHIRE report for HyperPlonk, and the stress case for the
 * scheduler's measured-cost lane policy.
 */

#include <cstddef>
#include <cstdint>

#include "circuit/Circuit.h"
#include "core/GateSnark.h"
#include "ff/FieldBackend.h"
#include "util/Rng.h"

namespace bzk {

/** x^4 via two squarings. */
template <typename F>
inline F
pow4(const F &x)
{
    F sq = x * x;
    return sq * sq;
}

/** The degree-5 custom gate a^4 * b - c. */
struct Pow4Gate
{
    /** eq * (a^4 b - c) has degree 6 in each variable. */
    static constexpr size_t kEvals = 7;
    static constexpr const char *kDomain = "batchzk.hdg.v1";
    static constexpr RoundLabels kLabels{"hdg.g", "hdg.r"};
    static constexpr uint8_t kProofTag = 0x04;

    /** out[i] = a[i]^4 * b[i] - c[i], a^4 via two squarings. */
    template <typename F>
    static void
    eval(const F *a, const F *b, const F *c, F *out, size_t n)
    {
        ff::mulLanes(a, a, out, n);
        ff::mulLanes(out, out, out, n);
        ff::mulLanes(out, b, out, n);
        ff::subLanes(out, c, out, n);
    }
};

template <typename F>
using HighDegreeSnark = GateSnark<F, Pow4Gate>;

template <typename F>
using HighDegreeProof = GateProof<F, Pow4Gate>;

/**
 * Build a satisfiable high-degree gate instance: a and b are random,
 * c = a^4 * b pointwise. Deterministic in @p rng — the durable service
 * and the network executor derive identical instances from
 * taskInstanceRng, which is what keeps crash+replay bit-identical.
 */
template <typename F>
ConstraintTables<F>
highDegreeInstance(unsigned n_vars, Rng &rng)
{
    size_t size = size_t{1} << n_vars;
    ConstraintTables<F> tables;
    tables.n_vars = n_vars;
    tables.a.resize(size);
    tables.b.resize(size);
    tables.c.resize(size);
    for (size_t i = 0; i < size; ++i) {
        tables.a[i] = F::random(rng);
        tables.b[i] = F::random(rng);
        tables.c[i] = pow4(tables.a[i]) * tables.b[i];
    }
    return tables;
}

} // namespace bzk

#endif // BZK_CORE_HIGHDEGREESNARK_H_
