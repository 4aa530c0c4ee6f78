/**
 * @file
 * Backend resolution (CPUID, env override, test forcing), kernel call
 * counters, and the lane kernels: under kIfma the IFMA kernels run each
 * call's whole 8-element blocks and Fp's operators run the tail; under
 * kScalar Fp runs every element.
 */

#include "ff/FieldBackend.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "ff/Fields.h"
#include "ff/WideKernels.h"
#include "util/Log.h"

namespace bzk::ff {

namespace {

// x86-64 builds compile WideKernelsIfma.cpp. Elsewhere kScalar is the
// only backend, and the kernels below discard their IFMA calls.
#if defined(__x86_64__) || defined(_M_X64)
constexpr bool kIfmaBuilt = true;
#else
constexpr bool kIfmaBuilt = false;
#endif

/** Counter slots, one per lane kernel. */
enum class Kernel {
    kAdd = 0,
    kSub,
    kMul,
    kFold,
    kAxpy,
    kSum,
    kDot,
    kBatchInverse,
    kCount_,
};

std::atomic<uint64_t>
    g_counters[static_cast<size_t>(Kernel::kCount_)] = {};

/** Bump one kernel's call counter (relaxed atomic). */
void
countKernel(Kernel kernel)
{
    g_counters[static_cast<size_t>(kernel)].fetch_add(
        1, std::memory_order_relaxed);
}

// -1 = unresolved; otherwise a Backend value. forceBackend stores
// directly; the first activeBackend() call resolves env then CPUID.
std::atomic<int> g_active{-1};

Backend
parseBackendName(const char *name)
{
    if (std::strcmp(name, "scalar") == 0)
        return Backend::kScalar;
    if (std::strcmp(name, "ifma") == 0)
        return Backend::kIfma;
    fatal("BZK_FIELD_BACKEND: unknown backend '%s' (want scalar|ifma)", name);
}

Backend
resolveBackend()
{
    if (const char *env = std::getenv("BZK_FIELD_BACKEND");
        env && *env) {
        Backend requested = parseBackendName(env);
        if (!backendAvailable(requested))
            fatal("BZK_FIELD_BACKEND=%s requested but this host does "
                  "not support it",
                  env);
        return requested;
    }
    return detectBackend();
}

static_assert(sizeof(Fr) == 4 * sizeof(uint64_t) &&
                  sizeof(Fq) == 4 * sizeof(uint64_t),
              "the IFMA kernels view Fp arrays as 4-limb arrays");

template <typename P>
const uint64_t *
limbs(const Fp<P> *p)
{
    return reinterpret_cast<const uint64_t *>(p);
}

template <typename P>
uint64_t *
limbs(Fp<P> *p)
{
    return reinterpret_cast<uint64_t *>(p);
}

/** The per-field runtime constants the IFMA kernels consume. */
template <typename F>
const detail::WideFieldConstants &
wideConstants()
{
    static constexpr detail::WideFieldConstants c =
        detail::makeWideConstants(
            F::kModulus.limb[0], F::kModulus.limb[1],
            F::kModulus.limb[2], F::kModulus.limb[3], F::kInv);
    return c;
}

/**
 * How many of an n-element call's leading elements the IFMA kernels
 * run: its whole 8-element blocks under kIfma, none under kScalar. Fp
 * runs the rest.
 */
size_t
ifmaElements(size_t n)
{
    return activeBackend() == Backend::kIfma ? n - n % detail::kIfmaLanes : 0;
}

} // namespace

const char *
backendName(Backend backend)
{
    switch (backend) {
      case Backend::kScalar:
        return "scalar";
      case Backend::kIfma:
        return "ifma";
    }
    return "unknown";
}

bool
backendAvailable(Backend backend)
{
    switch (backend) {
      case Backend::kScalar:
        return true;
      case Backend::kIfma:
#if defined(__x86_64__) || defined(_M_X64)
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512ifma");
#else
        return false;
#endif
    }
    return false;
}

Backend
detectBackend()
{
    return backendAvailable(Backend::kIfma) ? Backend::kIfma
                                            : Backend::kScalar;
}

Backend
activeBackend()
{
    int cached = g_active.load(std::memory_order_acquire);
    if (cached >= 0)
        return static_cast<Backend>(cached);
    Backend resolved = resolveBackend();
    int expected = -1;
    g_active.compare_exchange_strong(expected,
                                     static_cast<int>(resolved),
                                     std::memory_order_acq_rel);
    // On a lost race another thread resolved the same way (resolution
    // is deterministic), so either value is correct.
    return resolved;
}

void
forceBackend(Backend backend)
{
    if (!backendAvailable(backend))
        fatal("forceBackend: %s unavailable on this host",
              backendName(backend));
    g_active.store(static_cast<int>(backend),
                   std::memory_order_release);
}

void
clearForcedBackend()
{
    g_active.store(-1, std::memory_order_release);
}

size_t
backendLanes(Backend backend)
{
    return backend == Backend::kIfma ? detail::kIfmaLanes : 1;
}

KernelCounters
kernelCounters()
{
    auto load = [](Kernel k) {
        return g_counters[static_cast<size_t>(k)].load(
            std::memory_order_relaxed);
    };
    KernelCounters c;
    c.wide_add_lanes = load(Kernel::kAdd);
    c.wide_sub_lanes = load(Kernel::kSub);
    c.wide_mul_lanes = load(Kernel::kMul);
    c.wide_fold_lanes = load(Kernel::kFold);
    c.wide_axpy_lanes = load(Kernel::kAxpy);
    c.wide_sum_lanes = load(Kernel::kSum);
    c.wide_dot_lanes = load(Kernel::kDot);
    c.wide_batch_inverse = load(Kernel::kBatchInverse);
    return c;
}

void
resetKernelCounters()
{
    for (auto &counter : g_counters)
        counter.store(0, std::memory_order_relaxed);
}

// ---- The lane kernels. The IFMA kernels operate on the raw Montgomery
// ---- limb view; reading the result back through Fp is safe because
// ---- every kernel output is canonical.

template <typename P>
void
addLanes(const Fp<P> *a, const Fp<P> *b, Fp<P> *out, size_t n)
{
    countKernel(Kernel::kAdd);
    size_t i = ifmaElements(n);
    if constexpr (kIfmaBuilt)
        if (i)
            detail::ifmaAdd(wideConstants<Fp<P>>(), limbs(a), limbs(b),
                            limbs(out), i);
    for (; i < n; ++i)
        out[i] = a[i] + b[i];
}

template <typename P>
void
subLanes(const Fp<P> *a, const Fp<P> *b, Fp<P> *out, size_t n)
{
    countKernel(Kernel::kSub);
    size_t i = ifmaElements(n);
    if constexpr (kIfmaBuilt)
        if (i)
            detail::ifmaSub(wideConstants<Fp<P>>(), limbs(a), limbs(b),
                            limbs(out), i);
    for (; i < n; ++i)
        out[i] = a[i] - b[i];
}

template <typename P>
void
mulLanes(const Fp<P> *a, const Fp<P> *b, Fp<P> *out, size_t n)
{
    countKernel(Kernel::kMul);
    size_t i = ifmaElements(n);
    if constexpr (kIfmaBuilt)
        if (i)
            detail::ifmaMul(wideConstants<Fp<P>>(), limbs(a), limbs(b),
                            limbs(out), i);
    for (; i < n; ++i)
        out[i] = a[i] * b[i];
}

template <typename P>
void
foldLanes(Fp<P> *out, const Fp<P> *lo, const Fp<P> *hi, const Fp<P> &r,
          size_t n)
{
    countKernel(Kernel::kFold);
    size_t i = ifmaElements(n);
    if constexpr (kIfmaBuilt)
        if (i)
            detail::ifmaFold(wideConstants<Fp<P>>(), limbs(out), limbs(lo),
                             limbs(hi), limbs(&r), i);
    for (; i < n; ++i)
        out[i] = lo[i] + r * (hi[i] - lo[i]);
}

template <typename P>
void
axpyLanes(Fp<P> *acc, const Fp<P> *x, const Fp<P> &s, size_t n)
{
    countKernel(Kernel::kAxpy);
    size_t i = ifmaElements(n);
    if constexpr (kIfmaBuilt)
        if (i)
            detail::ifmaAxpy(wideConstants<Fp<P>>(), limbs(acc), limbs(x),
                             limbs(&s), i);
    for (; i < n; ++i)
        acc[i] += s * x[i];
}

template <typename P>
void
combineRowsLanes(const Fp<P> *rows, size_t stride, const Fp<P> *coeffs,
                 size_t k, Fp<P> *out, size_t n)
{
    countKernel(Kernel::kDot);
    size_t i = k ? ifmaElements(n) : 0;
    if constexpr (kIfmaBuilt) {
        if (i) {
            static_assert(Fp<P>::kModulus.limb[3] >> 62 == 0,
                          "ifmaCombineRows' reduction bound needs p < 2^254");
            detail::ifmaCombineRows(wideConstants<Fp<P>>(), limbs(rows),
                                    4 * stride, limbs(coeffs), k, limbs(out),
                                    i);
        }
    }
    std::fill(out + i, out + n, Fp<P>::zero());
    for (size_t row = 0; row < k; ++row)
        for (size_t j = i; j < n; ++j)
            out[j] += coeffs[row] * rows[row * stride + j];
}

template <typename P>
Fp<P>
sumLanes(const Fp<P> *a, size_t n)
{
    countKernel(Kernel::kSum);
    Fp<P> acc = Fp<P>::zero();
    size_t i = ifmaElements(n);
    if constexpr (kIfmaBuilt) {
        if (i) {
            Fp<P> partial[detail::kIfmaLanes];
            detail::ifmaSum(wideConstants<Fp<P>>(), limbs(a), i,
                            limbs(partial));
            for (const Fp<P> &p : partial)
                acc += p;
        }
    }
    for (; i < n; ++i)
        acc += a[i];
    return acc;
}

template <typename P>
Fp<P>
dotLanes(const Fp<P> *a, const Fp<P> *b, size_t n)
{
    countKernel(Kernel::kDot);
    Fp<P> acc = Fp<P>::zero();
    size_t i = ifmaElements(n);
    if constexpr (kIfmaBuilt) {
        if (i) {
            Fp<P> partial[detail::kIfmaLanes];
            detail::ifmaDot(wideConstants<Fp<P>>(), limbs(a), limbs(b), i,
                            limbs(partial));
            for (const Fp<P> &p : partial)
                acc += p;
        }
    }
    for (; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

template <size_t K, typename P>
std::array<Fp<P>, K + 2>
gateSumsLanes(const Fp<P> *a, const Fp<P> *b, const Fp<P> *c, size_t half,
              const Fp<P> *w, size_t n)
{
    using F = Fp<P>;
    constexpr size_t kPoints = K + 2;
    std::array<F, kPoints> sums{};
    size_t i = ifmaElements(n);
    if constexpr (kIfmaBuilt) {
        if (i) {
            static_assert(K == 1 || K == 4, "ifmaGateSums serves K = 1, 4");
            static_assert(F::kModulus.limb[3] >> 62 == 0,
                          "ifmaGateSums' reduction bound needs p < 2^254");
            // Groups 0 .. K + 1 sum w a_t^K b_t, then w c_lo and w c_hi.
            F lanes[kPoints + 2][detail::kIfmaLanes];
            std::array<F, kPoints + 2> group{};
            for (size_t at = 0; at < i; at += detail::kGateSumsSpan) {
                size_t m = std::min(detail::kGateSumsSpan, i - at);
                detail::ifmaGateSums<K>(wideConstants<F>(), limbs(a + at),
                                        limbs(b + at), limbs(c + at), half,
                                        limbs(w + at), m, limbs(&lanes[0][0]));
                for (size_t g = 0; g < group.size(); ++g)
                    for (const F &lane : lanes[g])
                        group[g] += lane;
            }
            const F scale = F::fromUint(uint64_t{1}
                                        << detail::gateSumsShift(K));
            const F c_scale = F::fromUint(uint64_t{1}
                                          << detail::kGateSumsCShift);
            // sum w c_t is affine in t.
            F wc = group[kPoints] * c_scale;
            const F wc_step = group[kPoints + 1] * c_scale - wc;
            for (size_t t = 0; t < kPoints; ++t, wc += wc_step)
                sums[t] = group[t] * scale - wc;
        }
    }
    for (; i < n; ++i) {
        F at = a[i], bt = b[i], ct = c[i];
        const F da = a[half + i] - at, db = b[half + i] - bt,
                dc = c[half + i] - ct;
        for (size_t t = 0; t < kPoints; ++t) {
            if (t > 0) {
                at += da;
                bt += db;
                ct += dc;
            }
            sums[t] += w[i] * gateValue<K>(at, bt, ct);
        }
    }
    return sums;
}

template <typename P>
void
fromCanonicalLanes(const U256 *in, Fp<P> *out, size_t n)
{
    countKernel(Kernel::kMul);
    size_t i = ifmaElements(n);
    if constexpr (kIfmaBuilt) {
        if (i) {
            // out = 0 + s * in with s's Montgomery limbs R^2 (the
            // element R): in * R^2 * R^-1 = in * R, whose value is in.
            static const Fp<P> r = Fp<P>::fromU256(Fp<P>::one().montRaw());
            std::fill(out, out + i, Fp<P>::zero());
            detail::ifmaAxpy(wideConstants<Fp<P>>(), limbs(out),
                             reinterpret_cast<const uint64_t *>(in),
                             limbs(&r), i);
        }
    }
    for (; i < n; ++i)
        out[i] = Fp<P>::fromU256(in[i]);
}

bool
rowBatchActive()
{
    return kIfmaBuilt && activeBackend() == Backend::kIfma;
}

static_assert(kRowBatch == detail::kIfmaLanes &&
                  sizeof(RowLanes) == detail::kRowLimbs * detail::kIfmaLanes *
                                          sizeof(uint64_t),
              "RowLanes is one batch position of the IFMA row kernels");

template <typename F>
void
loadRowBatch(const F *rows, size_t row_stride, size_t n, RowLanes *batch)
{
    if (!rowBatchActive())
        fatal("loadRowBatch: the row-batch kernels need the ifma backend");
    if constexpr (kIfmaBuilt)
        detail::ifmaLoadRows(wideConstants<F>(), limbs(rows), 4 * row_stride,
                             n, &batch->limb[0][0]);
}

template <typename F>
void
mulRowBatch(const size_t *offsets, const RowTerm *terms, size_t n_rows,
            const RowLanes *in, RowLanes *out)
{
    static_assert(sizeof(RowTerm) == 2 * sizeof(uint32_t));
    if (!rowBatchActive())
        fatal("mulRowBatch: the row-batch kernels need the ifma backend");
    if constexpr (kIfmaBuilt)
        detail::ifmaMulRows(wideConstants<F>(), offsets,
                            reinterpret_cast<const uint32_t *>(terms), n_rows,
                            &in->limb[0][0], &out->limb[0][0]);
}

void
storeRowBatch(const RowLanes *batch, size_t n, U256 *rows, size_t row_stride)
{
    static_assert(sizeof(U256) == 4 * sizeof(uint64_t));
    if (!rowBatchActive())
        fatal("storeRowBatch: the row-batch kernels need the ifma backend");
    if constexpr (kIfmaBuilt)
        detail::ifmaStoreRows(&batch->limb[0][0], n,
                              reinterpret_cast<uint64_t *>(rows),
                              4 * row_stride);
}

template <typename P>
size_t
batchInverse(Fp<P> *x, size_t n)
{
    countKernel(Kernel::kBatchInverse);
    std::vector<Fp<P>> prefix(n);
    Fp<P> run = Fp<P>::one();
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
    Fp<P> inv = run.inverse();
    for (size_t i = n; i-- > 0;) {
        if (x[i].isZero())
            continue;
        Fp<P> xi = x[i];
        x[i] = inv * prefix[i];
        inv *= xi;
    }
    return inverted;
}

// The lane API exists for these two fields only: Fr for every proof,
// Fq for the MSM baseline's batch-affine pass.

template void addLanes(const Fr *, const Fr *, Fr *, size_t);
template void subLanes(const Fr *, const Fr *, Fr *, size_t);
template void mulLanes(const Fr *, const Fr *, Fr *, size_t);
template void foldLanes(Fr *, const Fr *, const Fr *, const Fr &, size_t);
template void axpyLanes(Fr *, const Fr *, const Fr &, size_t);
template void combineRowsLanes(const Fr *, size_t, const Fr *, size_t, Fr *,
                               size_t);
template Fr sumLanes(const Fr *, size_t);
template Fr dotLanes(const Fr *, const Fr *, size_t);
template size_t batchInverse(Fr *, size_t);
template void fromCanonicalLanes(const U256 *, Fr *, size_t);
template std::array<Fr, 3> gateSumsLanes<1>(const Fr *, const Fr *,
                                            const Fr *, size_t, const Fr *,
                                            size_t);
template std::array<Fr, 6> gateSumsLanes<4>(const Fr *, const Fr *,
                                            const Fr *, size_t, const Fr *,
                                            size_t);
template void loadRowBatch(const Fr *, size_t, size_t, RowLanes *);
template void mulRowBatch<Fr>(const size_t *, const RowTerm *, size_t,
                              const RowLanes *, RowLanes *);

template void addLanes(const Fq *, const Fq *, Fq *, size_t);
template void subLanes(const Fq *, const Fq *, Fq *, size_t);
template void mulLanes(const Fq *, const Fq *, Fq *, size_t);
template void foldLanes(Fq *, const Fq *, const Fq *, const Fq &, size_t);
template void axpyLanes(Fq *, const Fq *, const Fq &, size_t);
template void combineRowsLanes(const Fq *, size_t, const Fq *, size_t, Fq *,
                               size_t);
template Fq sumLanes(const Fq *, size_t);
template Fq dotLanes(const Fq *, const Fq *, size_t);
template size_t batchInverse(Fq *, size_t);

} // namespace bzk::ff
