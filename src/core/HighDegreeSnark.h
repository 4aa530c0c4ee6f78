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
 * with degree-6 round polynomials. Each evaluation point costs two
 * more squarings than the multiplicative gate, which shifts the
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

/** The degree-5 custom gate a^4 * b - c. */
struct Pow4Gate
{
    /** a's exponent K in a^K * b - c. */
    static constexpr size_t kPower = 4;
    /** eq * (a^4 b - c) has degree 6 in each variable. */
    static constexpr size_t kEvals = kPower + 3;
    static constexpr const char *kDomain = "batchzk.hdg.v1";
    static constexpr RoundLabels kLabels{"hdg.g", "hdg.r"};
    static constexpr uint8_t kProofTag = 0x04;
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
        tables.c[i] =
            ff::gateValue<Pow4Gate::kPower>(tables.a[i], tables.b[i],
                                            F::zero());
    }
    return tables;
}

} // namespace bzk

#endif // BZK_CORE_HIGHDEGREESNARK_H_
