#ifndef BZK_FF_FIELDBACKEND_H_
#define BZK_FF_FIELDBACKEND_H_

/**
 * @file
 * Runtime-dispatched lane kernels over the BN254 fields.
 *
 * The module hot loops (sum-check round sums and folds, Spielman
 * encoder SpMV, tensor-PCS row combines) all reduce to long chains of
 * field mul/add over contiguous element arrays. This header is the one
 * place those loops go: add, sub, mul, fold and dot/sum/axpy kernels
 * over lanes, the PCS's row combination (combineRowsLanes), Montgomery
 * batch inversion, the encoder's row batch and the gate sum-check's
 * fused round sums (gateSumsLanes).
 *
 * Every kernel computes exactly the same field elements as the obvious
 * Fp loop: lane packing only reorders independent lane work, and where
 * a kernel folds lanes into one value (sumLanes, dotLanes) the
 * reordering is invisible because field addition is exactly
 * associative and commutative — unlike floats there is no rounding.
 * Proof bytes therefore do not depend on the selected backend (pinned
 * by test_ff_kat and the system goldens).
 *
 * The kernels are templates over Fp<P>, defined in FieldBackend.cpp and
 * instantiated for BN254 Fr and Fq only. Under kIfma, whole blocks of 8
 * elements are transposed to a limb-major (struct-of-arrays) layout and
 * multiplied 8-way with AVX-512 IFMA vpmadd52 (WideKernels.h), and Fp's
 * own operators run each call's tail. Under kScalar, Fp runs every
 * element. CPUID picks the backend, BZK_FIELD_BACKEND=scalar|ifma
 * forces one (CI pins `scalar` for a dispatch leg), and tests force one
 * with forceBackend(). See docs/PERFORMANCE.md.
 */

#include <array>
#include <cstddef>
#include <cstdint>

#include "ff/Fp.h"

namespace bzk::ff {

/**
 * The lane-kernel backends. Ordinals are stable: the bzk_field_backend
 * gauge reports them.
 */
enum class Backend {
    /** Fp's element loop; always available. */
    kScalar = 0,
    /** 8-way radix-52 vpmadd52; needs AVX-512F and AVX-512 IFMA. */
    kIfma = 2,
};

/** Stable lower-case name ("scalar", "ifma"). */
const char *backendName(Backend backend);

/** True when @p backend can run on this host (kScalar always can). */
bool backendAvailable(Backend backend);

/** Best backend this host supports (ifma, then scalar). */
Backend detectBackend();

/**
 * The backend the lane kernels dispatch to: a forceBackend() override
 * wins, then BZK_FIELD_BACKEND (fatal on unknown or unavailable names),
 * then detectBackend(). Resolved once and cached.
 */
Backend activeBackend();

/**
 * Pin the dispatched backend (tests sweep every available backend
 * through the same call sites). Fatal when @p backend is unavailable
 * on this host; clearForcedBackend() restores env/CPUID resolution.
 */
void forceBackend(Backend backend);

/** Undo forceBackend(); the next call re-resolves env then CPUID. */
void clearForcedBackend();

/** Elements per packed block of @p backend (1 or 8). */
size_t backendLanes(Backend backend);

/**
 * Cumulative lane-kernel invocation counts, one per kernel (exported
 * as the bzk_field_wide_*_calls gauges; perfbench reads these names).
 */
struct KernelCounters
{
    uint64_t wide_add_lanes = 0;
    uint64_t wide_sub_lanes = 0;
    uint64_t wide_mul_lanes = 0;
    uint64_t wide_fold_lanes = 0;
    uint64_t wide_axpy_lanes = 0;
    uint64_t wide_sum_lanes = 0;
    uint64_t wide_dot_lanes = 0;
    uint64_t wide_batch_inverse = 0;
};

/** Snapshot of the process-wide counters (relaxed; monotonic). */
KernelCounters kernelCounters();

/** Zero the process-wide counters (tests and bench setup). */
void resetKernelCounters();

// The elementwise kernels add, sub and mul may run in place: @p out may
// be @p a, @p b or both (the gates and the MSM batch-affine pass do
// this). Any partial overlap is undefined. Every backend reads a
// block's operands before it writes that block.

/** out[i] = a[i] + b[i] for i in [0, n). */
template <typename P>
void addLanes(const Fp<P> *a, const Fp<P> *b, Fp<P> *out, size_t n);

/** out[i] = a[i] - b[i] for i in [0, n). */
template <typename P>
void subLanes(const Fp<P> *a, const Fp<P> *b, Fp<P> *out, size_t n);

/** out[i] = a[i] * b[i] for i in [0, n). */
template <typename P>
void mulLanes(const Fp<P> *a, const Fp<P> *b, Fp<P> *out, size_t n);

/**
 * The sum-check fold: out[i] = lo[i] + r * (hi[i] - lo[i]). @p out may
 * be @p lo (a fold in place); no other two of the three ranges may
 * overlap.
 */
template <typename P>
void foldLanes(Fp<P> *out, const Fp<P> *lo, const Fp<P> *hi, const Fp<P> &r,
               size_t n);

/** acc[i] += s * x[i]. */
template <typename P>
void axpyLanes(Fp<P> *acc, const Fp<P> *x, const Fp<P> &s, size_t n);

/**
 * The tensor PCS's row combination: out[j] = sum over row < k of
 * coeffs[row] * rows[row * stride + j], for j < n. Under kIfma each
 * whole block of 8 columns sums its k products unreduced and reduces
 * once per 256 rows (ifmaCombineRows); Fp runs each call's tail
 * columns, and every column under kScalar. @p out must overlap neither
 * input. Counts as a dotLanes call: it is n dot products of length k.
 */
template <typename P>
void combineRowsLanes(const Fp<P> *rows, size_t stride, const Fp<P> *coeffs,
                      size_t k, Fp<P> *out, size_t n);

/** sum_i a[i]; any summation order (field addition is associative). */
template <typename P>
Fp<P> sumLanes(const Fp<P> *a, size_t n);

/** sum_i a[i] * b[i]; any summation order. */
template <typename P>
Fp<P> dotLanes(const Fp<P> *a, const Fp<P> *b, size_t n);

/**
 * Montgomery batch inversion: replace every non-zero x[i] with its
 * multiplicative inverse using one field inversion plus 3n
 * multiplications. Zero entries are skipped and left as zero — they
 * never corrupt the prefix products of the other entries (the
 * documented skip-zero semantics; a debug assert in scalar inverse()
 * still flags accidental single-element zero inversions). Returns the
 * number of elements inverted.
 */
template <typename P>
size_t batchInverse(Fp<P> *x, size_t n);

/** x^K by repeated squaring. */
template <size_t K, typename F>
F
powConst(const F &x)
{
    static_assert(K >= 1);
    if constexpr (K == 1) {
        return x;
    } else if constexpr (K % 2 == 1) {
        return powConst<K - 1>(x) * x;
    } else {
        F half = powConst<K / 2>(x);
        return half * half;
    }
}

/**
 * The custom gate G(a, b, c) = a^K * b - c (core/GateSnark.h) at one
 * point: gateSumsLanes' Fp path and the verifiers' final checks.
 */
template <size_t K, typename F>
F
gateValue(const F &a, const F &b, const F &c)
{
    return powConst<K>(a) * b - c;
}

/**
 * The gate sum-check's chunk step: every round sum of G = a^K * b - c
 * over n table pairs in one call,
 *
 *   sums[t] = sum_{i < n} w[i] * G(a_t[i], b_t[i], c_t[i]),
 *   x_t[i] = x[i] + t * (x[half + i] - x[i]),
 *
 * for t = 0 .. K + 1: pair i is element i (lo) and element half + i
 * (hi) of each table. Under kIfma, ifmaGateSums (K = 1 or 4) runs the
 * whole 8-pair blocks in one radix-2^52 pass and Fp scales its sums
 * back; Fp runs each call's tail, and every pair under kScalar, as the
 * plain formula with the tables stepped by addition. Allocates
 * nothing. Instantiated for Fr with K = 1 and K = 4.
 */
template <size_t K, typename P>
std::array<Fp<P>, K + 2> gateSumsLanes(const Fp<P> *a, const Fp<P> *b,
                                       const Fp<P> *c, size_t half,
                                       const Fp<P> *w, size_t n);

/**
 * out[i] = the element whose canonical value is in[i] (each below p):
 * one Montgomery multiply by R^2 per element, on the multiply kernel.
 * Counts as a mulLanes call.
 */
template <typename P>
void fromCanonicalLanes(const U256 *in, Fp<P> *out, size_t n);

// ---- The Spielman encoder's row batch: kRowBatch rows of a table run
// ---- through the same sparse row sums at once, one row per IFMA lane
// ---- (SpielmanCode::encodeRows). The kernels run under kIfma only;
// ---- rowBatchActive() says whether they do.

/** Rows per encoder batch: one per 64-bit lane of an IFMA register. */
inline constexpr size_t kRowBatch = 8;

/**
 * One codeword position of a row batch: each row's canonical residue
 * in five radix-2^52 limbs, limb j of row l at limb[j][l].
 */
struct alignas(64) RowLanes
{
    uint64_t limb[5][kRowBatch];
};

/** One term of a sparse row sum: coeff * x[col]. */
struct RowTerm
{
    uint32_t col = 0;
    uint32_t coeff = 0;
};

/** True when the active backend runs the row-batch kernels (kIfma). */
bool rowBatchActive();

/**
 * batch[i] = the canonical values of rows[l * row_stride + i] for
 * l < kRowBatch and i < n.
 */
template <typename F>
void loadRowBatch(const F *rows, size_t row_stride, size_t n,
                  RowLanes *batch);

/**
 * out[r] = the canonical residue of the sum of terms[e].coeff *
 * in[terms[e].col] over e in [offsets[r], offsets[r + 1]), for
 * r < n_rows and in every lane: the lanes' SmallDot::residue(). At
 * most 255 terms per row; in and out must not overlap. The modulus is
 * the field F's.
 */
template <typename F>
void mulRowBatch(const size_t *offsets, const RowTerm *terms, size_t n_rows,
                 const RowLanes *in, RowLanes *out);

/** rows[l * row_stride + i] = row l of batch[i], for i < n. */
void storeRowBatch(const RowLanes *batch, size_t n, U256 *rows,
                   size_t row_stride);

} // namespace bzk::ff

#endif // BZK_FF_FIELDBACKEND_H_
