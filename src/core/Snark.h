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

#include "core/GateSnark.h"
#include "ff/FieldBackend.h"

namespace bzk {

/** The multiplicative gate a*b - c. */
struct MulGate
{
    /** eq * (a*b - c) is cubic in each variable. */
    static constexpr size_t kEvals = 4;
    static constexpr const char *kDomain = "batchzk.snark.v1";
    static constexpr RoundLabels kLabels{"csc.g", "csc.r"};
    static constexpr uint8_t kProofTag = 0x01;

    /** out[i] = a[i] * b[i] - c[i]. */
    template <typename F>
    static void
    eval(const F *a, const F *b, const F *c, F *out, size_t n)
    {
        ff::mulLanes(a, b, out, n);
        ff::subLanes(out, c, out, n);
    }
};

template <typename F>
using Snark = GateSnark<F, MulGate>;

template <typename F>
using SnarkProof = GateProof<F, MulGate>;

} // namespace bzk

#endif // BZK_CORE_SNARK_H_
