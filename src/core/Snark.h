#ifndef BZK_CORE_SNARK_H_
#define BZK_CORE_SNARK_H_

/**
 * @file
 * The table-commitment protocol (sched::ProtocolKind::TableCommit): the
 * gate SNARK of core/GateSnark.h over the multiplicative gate, proving
 *
 *   sum_x eq(tau,x) * (a(x) b(x) - c(x)) = 0
 *
 * with cubic round polynomials.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/Circuit.h"
#include "core/GateSnark.h"
#include "ff/Fields.h"
#include "util/Rng.h"

namespace bzk {

/** The multiplicative gate a*b - c. */
struct MulGate
{
    /** a's exponent K in a^K * b - c. */
    static constexpr size_t kPower = 1;
    /** eq * (a*b - c) is cubic in each variable. */
    static constexpr size_t kEvals = kPower + 3;
    static constexpr const char *kDomain = "batchzk.snark.v1";
    static constexpr RoundLabels kLabels{"csc.g", "csc.r"};
    static constexpr uint8_t kProofTag = 0x01;
};

template <typename F>
using Snark = GateSnark<F, MulGate>;

template <typename F>
using SnarkProof = GateProof<F, MulGate>;

/**
 * Build a satisfied mul-gate instance sized for 2^n_vars rows: a random
 * circuit filling three quarters of the table, with random witnesses.
 * Deterministic in @p rng, like highDegreeInstance.
 */
inline ConstraintTables<Fr>
randomInstance(unsigned n_vars, Rng &rng)
{
    size_t target = (size_t{1} << n_vars) - (size_t{1} << (n_vars - 2));
    auto circuit = randomCircuit<Fr>(target, 8, rng);
    std::vector<Fr> witness(circuit.numWitnesses());
    for (auto &w : witness)
        w = Fr::random(rng);
    auto assignment = circuit.evaluate({}, witness);
    return circuit.buildTables(assignment);
}

} // namespace bzk

#endif // BZK_CORE_SNARK_H_
