#ifndef BZK_FF_FIELDBACKEND_H_
#define BZK_FF_FIELDBACKEND_H_

/**
 * @file
 * Runtime-dispatched packed field kernels.
 *
 * The module hot loops (sum-check round sums and folds, Spielman
 * encoder SpMV, tensor-PCS row combines) all reduce to long chains of
 * field mul/add over contiguous element arrays. This header is the one
 * place those loops go for N-way packed versions of that work: add,
 * sub, mul, fold and dot/sum/axpy kernels over lanes, plus Montgomery
 * batch inversion.
 *
 * Every kernel computes exactly the same field elements as the obvious
 * scalar loop: lane packing only reorders independent lane work, and
 * where a kernel folds lanes into one value (sumLanes, dotLanes) the
 * reordering is invisible because field addition is exactly
 * associative and commutative — unlike floats there is no rounding.
 * Proof bytes therefore do not depend on the selected backend (pinned
 * by test_ff_kat and the system goldens).
 *
 * The generic templates below run the portable loop for any field
 * type (Goldilocks among them). The 4x64-limb Montgomery fields BN254
 * Fr and Fq specialize them onto the wide kernel tables of
 * WideKernels.h: whole blocks of elements are transposed to a
 * limb-major (struct-of-arrays) layout and multiplied 8-way with
 * AVX-512 IFMA vpmadd52 (radix-52) or 4-way with AVX2 widening 64x64
 * multiplies (radix-64 CIOS), and Fp's own operators run each call's
 * tail. The scalar backend has no table: Fp runs every element. One
 * Backend names the table: CPUID picks the best one the host runs,
 * BZK_FIELD_BACKEND=scalar|avx2|ifma forces one (CI pins `scalar` and
 * `avx2` for dispatch legs), and tests force one with forceBackend().
 * See docs/PERFORMANCE.md.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ff/FieldParams.h"
#include "ff/Fp.h"

namespace bzk::ff {

/**
 * The wide-field (BN254 Fr/Fq) kernel tables. Ordinals are stable:
 * the bzk_field_backend gauge reports them.
 */
enum class Backend {
    /** Fp's element loop, no table; always available. */
    kScalar = 0,
    /** 4-way radix-64 CIOS; needs AVX2. */
    kAvx2 = 1,
    /** 8-way radix-52 vpmadd52; needs AVX-512F and AVX-512 IFMA. */
    kIfma = 2,
};

/** Stable lower-case name ("scalar", "avx2", "ifma"). */
const char *backendName(Backend backend);

/** True when @p backend can run on this host (kScalar always can). */
bool backendAvailable(Backend backend);

/** Best backend this host supports (ifma, then avx2, then scalar). */
Backend detectBackend();

/**
 * The backend Fr/Fq lane kernels dispatch to: a forceBackend()
 * override wins, then BZK_FIELD_BACKEND (fatal on unknown or
 * unavailable names), then detectBackend(). Resolved once and cached.
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

/** Elements per packed block of @p backend (1, 4 or 8). */
size_t backendLanes(Backend backend);

/** Cumulative packed-kernel invocation counts (exported as metrics). */
struct KernelCounters
{
    uint64_t add_lanes = 0;
    uint64_t sub_lanes = 0;
    uint64_t mul_lanes = 0;
    uint64_t fold_lanes = 0;
    uint64_t axpy_lanes = 0;
    uint64_t sum_lanes = 0;
    uint64_t dot_lanes = 0;
    uint64_t batch_inverse = 0;
    // Wide-field (Fr/Fq) kernel invocations, counted separately from
    // the generic loops above (which every other field runs).
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

namespace detail {

/** Counter slots, one per public kernel. */
enum class Kernel {
    kAdd = 0,
    kSub,
    kMul,
    kFold,
    kAxpy,
    kSum,
    kDot,
    kBatchInverse,
    kWideAdd,
    kWideSub,
    kWideMul,
    kWideFold,
    kWideAxpy,
    kWideSum,
    kWideDot,
    kWideBatchInverse,
    kCount_,
};

/** Bump one kernel's call counter (relaxed atomic). */
void countKernel(Kernel kernel);

/**
 * The Montgomery-trick body shared by the generic batchInverse and
 * the wide-field specializations (only the counter slot differs).
 */
template <typename F>
size_t
batchInverseImpl(F *x, size_t n)
{
    std::vector<F> prefix(n);
    F run = F::one();
    size_t inverted = 0;
    for (size_t i = 0; i < n; ++i) {
        if (x[i].isZero())
            continue;
        prefix[i] = run;
        run *= x[i];
        ++inverted;
    }
    if (inverted == 0)
        return 0;
    F inv = run.inverse();
    for (size_t i = n; i-- > 0;) {
        if (x[i].isZero())
            continue;
        F xi = x[i];
        x[i] = inv * prefix[i];
        inv *= xi;
    }
    return inverted;
}

} // namespace detail

/** out[i] = a[i] + b[i] for i in [0, n). */
template <typename F>
void
addLanes(const F *a, const F *b, F *out, size_t n)
{
    detail::countKernel(detail::Kernel::kAdd);
    for (size_t i = 0; i < n; ++i)
        out[i] = a[i] + b[i];
}

/**
 * out[i] = a[i] - b[i] for i in [0, n). @p out may be @p a itself (in
 * place, as eqTable runs it); no other overlap is allowed. Every
 * backend reads a block's operands before it writes that block.
 */
template <typename F>
void
subLanes(const F *a, const F *b, F *out, size_t n)
{
    detail::countKernel(detail::Kernel::kSub);
    for (size_t i = 0; i < n; ++i)
        out[i] = a[i] - b[i];
}

/** out[i] = a[i] * b[i] for i in [0, n). */
template <typename F>
void
mulLanes(const F *a, const F *b, F *out, size_t n)
{
    detail::countKernel(detail::Kernel::kMul);
    for (size_t i = 0; i < n; ++i)
        out[i] = a[i] * b[i];
}

/**
 * The sum-check fold: lo[i] = lo[i] + r * (hi[i] - lo[i]). The lo and
 * hi ranges must not overlap.
 */
template <typename F>
void
foldLanes(F *lo, const F *hi, const F &r, size_t n)
{
    detail::countKernel(detail::Kernel::kFold);
    for (size_t i = 0; i < n; ++i)
        lo[i] = lo[i] + r * (hi[i] - lo[i]);
}

/** acc[i] += s * x[i] (the row-combine primitive of the tensor PCS). */
template <typename F>
void
axpyLanes(F *acc, const F *x, const F &s, size_t n)
{
    detail::countKernel(detail::Kernel::kAxpy);
    for (size_t i = 0; i < n; ++i)
        acc[i] += s * x[i];
}

/** sum_i a[i]; any summation order (field addition is associative). */
template <typename F>
F
sumLanes(const F *a, size_t n)
{
    detail::countKernel(detail::Kernel::kSum);
    F acc = F::zero();
    for (size_t i = 0; i < n; ++i)
        acc += a[i];
    return acc;
}

/** sum_i a[i] * b[i]; any summation order. */
template <typename F>
F
dotLanes(const F *a, const F *b, size_t n)
{
    detail::countKernel(detail::Kernel::kDot);
    F acc = F::zero();
    for (size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

/**
 * Montgomery batch inversion: replace every non-zero x[i] with its
 * multiplicative inverse using one field inversion plus 3n
 * multiplications. Zero entries are skipped and left as zero — they
 * never corrupt the prefix products of the other entries (the
 * documented skip-zero semantics; a debug assert in scalar inverse()
 * still flags accidental single-element zero inversions). Returns the
 * number of elements inverted.
 */
template <typename F>
size_t
batchInverse(F *x, size_t n)
{
    detail::countKernel(detail::Kernel::kBatchInverse);
    return detail::batchInverseImpl(x, n);
}

// BN254 Fr and Fq route through the wide-field (4x64-limb Montgomery)
// kernel tables: limb-transposed SoA blocks, 8-way under AVX-512 IFMA,
// 4-way under AVX2, with Fp finishing each tail; under kScalar Fp runs
// the whole loop. Bit-identical to the portable loop for every backend
// (each element result is fully canonical).
using Bn254Fr = Fp<Bn254FrParams>;
using Bn254Fq = Fp<Bn254FqParams>;

template <>
void addLanes<Bn254Fr>(const Bn254Fr *a, const Bn254Fr *b, Bn254Fr *out,
                       size_t n);
template <>
void subLanes<Bn254Fr>(const Bn254Fr *a, const Bn254Fr *b, Bn254Fr *out,
                       size_t n);
template <>
void mulLanes<Bn254Fr>(const Bn254Fr *a, const Bn254Fr *b, Bn254Fr *out,
                       size_t n);
template <>
void foldLanes<Bn254Fr>(Bn254Fr *lo, const Bn254Fr *hi, const Bn254Fr &r,
                        size_t n);
template <>
void axpyLanes<Bn254Fr>(Bn254Fr *acc, const Bn254Fr *x, const Bn254Fr &s,
                        size_t n);
template <> Bn254Fr sumLanes<Bn254Fr>(const Bn254Fr *a, size_t n);
template <>
Bn254Fr dotLanes<Bn254Fr>(const Bn254Fr *a, const Bn254Fr *b, size_t n);

template <>
void addLanes<Bn254Fq>(const Bn254Fq *a, const Bn254Fq *b, Bn254Fq *out,
                       size_t n);
template <>
void subLanes<Bn254Fq>(const Bn254Fq *a, const Bn254Fq *b, Bn254Fq *out,
                       size_t n);
template <>
void mulLanes<Bn254Fq>(const Bn254Fq *a, const Bn254Fq *b, Bn254Fq *out,
                       size_t n);
template <>
void foldLanes<Bn254Fq>(Bn254Fq *lo, const Bn254Fq *hi, const Bn254Fq &r,
                        size_t n);
template <>
void axpyLanes<Bn254Fq>(Bn254Fq *acc, const Bn254Fq *x, const Bn254Fq &s,
                        size_t n);
template <> Bn254Fq sumLanes<Bn254Fq>(const Bn254Fq *a, size_t n);
template <>
Bn254Fq dotLanes<Bn254Fq>(const Bn254Fq *a, const Bn254Fq *b, size_t n);

// The wide batch inversion shares the generic Montgomery-trick body
// (its multiplies are already single-element chains) but is counted
// on the wide_batch_inverse slot so metrics and the bench can see it.
template <>
inline size_t
batchInverse<Bn254Fr>(Bn254Fr *x, size_t n)
{
    detail::countKernel(detail::Kernel::kWideBatchInverse);
    return detail::batchInverseImpl(x, n);
}

template <>
inline size_t
batchInverse<Bn254Fq>(Bn254Fq *x, size_t n)
{
    detail::countKernel(detail::Kernel::kWideBatchInverse);
    return detail::batchInverseImpl(x, n);
}

} // namespace bzk::ff

#endif // BZK_FF_FIELDBACKEND_H_
