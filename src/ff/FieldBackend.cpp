/**
 * @file
 * Backend resolution (CPUID, env override, test forcing), kernel call
 * counters, and the BN254 Fr/Fq specializations of the public lane
 * API: the active SIMD table runs each call's whole blocks, and Fp's
 * operators run the tail (and every element under kScalar).
 */

#include "ff/FieldBackend.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "ff/WideKernels.h"
#include "util/Log.h"

namespace bzk::ff {

namespace detail {
namespace {

std::atomic<uint64_t>
    g_counters[static_cast<size_t>(Kernel::kCount_)] = {};

} // namespace

void
countKernel(Kernel kernel)
{
    g_counters[static_cast<size_t>(kernel)].fetch_add(
        1, std::memory_order_relaxed);
}

} // namespace detail

namespace {

// -1 = unresolved; otherwise a Backend value. forceBackend stores
// directly; the first activeBackend() call resolves env then CPUID.
std::atomic<int> g_active{-1};

Backend
parseBackendName(const char *name)
{
    if (std::strcmp(name, "scalar") == 0)
        return Backend::kScalar;
    if (std::strcmp(name, "avx2") == 0)
        return Backend::kAvx2;
    if (std::strcmp(name, "ifma") == 0)
        return Backend::kIfma;
    fatal("BZK_FIELD_BACKEND: unknown backend '%s' "
          "(want scalar|avx2|ifma)",
          name);
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

static_assert(sizeof(Fp<Bn254FrParams>) == 4 * sizeof(uint64_t) &&
                  sizeof(Fp<Bn254FqParams>) == 4 * sizeof(uint64_t),
              "wide kernels view Fp arrays as 4-limb arrays");

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

/** The per-field runtime constants the wide kernel tables consume. */
template <typename P>
const detail::WideFieldConstants &
wideConstants()
{
    using F = Fp<P>;
    static constexpr detail::WideFieldConstants c =
        detail::makeWideConstants(
            F::kModulus.limb[0], F::kModulus.limb[1],
            F::kModulus.limb[2], F::kModulus.limb[3], F::kInv);
    return c;
}

/**
 * How an n-element Fr/Fq call splits: the active SIMD table runs the
 * first `blocks_n` elements, whole blocks of `lanes`, and Fp's
 * operators run the rest. kScalar has no table, so Fp runs them all.
 */
struct WideSplit
{
    const detail::WideKernelTable *table;
    size_t lanes;
    size_t blocks_n;
};

WideSplit
wideSplit(size_t n)
{
    Backend backend = activeBackend();
    const detail::WideKernelTable *table = nullptr;
#if defined(__x86_64__) || defined(_M_X64)
    switch (backend) {
      case Backend::kIfma:
        table = &detail::wideIfmaKernels();
        break;
      case Backend::kAvx2:
        table = &detail::wideAvx2Kernels();
        break;
      default:
        break;
    }
#endif
    size_t lanes = backendLanes(backend);
    return {table, lanes, table ? n - n % lanes : 0};
}

} // namespace

const char *
backendName(Backend backend)
{
    switch (backend) {
      case Backend::kScalar:
        return "scalar";
      case Backend::kAvx2:
        return "avx2";
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
#if defined(__x86_64__) || defined(_M_X64)
      case Backend::kAvx2:
        return __builtin_cpu_supports("avx2");
      case Backend::kIfma:
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512ifma");
#endif
      default:
        return false;
    }
}

Backend
detectBackend()
{
    // AVX-512F without IFMA lands on avx2: AVX-512F implies AVX2, and
    // the carry-chain code gains nothing from 512-bit lanes
    // (docs/PERFORMANCE.md).
    if (backendAvailable(Backend::kIfma))
        return Backend::kIfma;
    if (backendAvailable(Backend::kAvx2))
        return Backend::kAvx2;
    return Backend::kScalar;
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
    switch (backend) {
      case Backend::kAvx2:
        return detail::kAvx2Lanes;
      case Backend::kIfma:
        return detail::kIfmaLanes;
      default:
        return 1;
    }
}

KernelCounters
kernelCounters()
{
    using detail::Kernel;
    auto load = [](Kernel k) {
        return detail::g_counters[static_cast<size_t>(k)].load(
            std::memory_order_relaxed);
    };
    KernelCounters c;
    c.add_lanes = load(Kernel::kAdd);
    c.sub_lanes = load(Kernel::kSub);
    c.mul_lanes = load(Kernel::kMul);
    c.fold_lanes = load(Kernel::kFold);
    c.axpy_lanes = load(Kernel::kAxpy);
    c.sum_lanes = load(Kernel::kSum);
    c.dot_lanes = load(Kernel::kDot);
    c.batch_inverse = load(Kernel::kBatchInverse);
    c.wide_add_lanes = load(Kernel::kWideAdd);
    c.wide_sub_lanes = load(Kernel::kWideSub);
    c.wide_mul_lanes = load(Kernel::kWideMul);
    c.wide_fold_lanes = load(Kernel::kWideFold);
    c.wide_axpy_lanes = load(Kernel::kWideAxpy);
    c.wide_sum_lanes = load(Kernel::kWideSum);
    c.wide_dot_lanes = load(Kernel::kWideDot);
    c.wide_batch_inverse = load(Kernel::kWideBatchInverse);
    return c;
}

void
resetKernelCounters()
{
    for (auto &counter : detail::g_counters)
        counter.store(0, std::memory_order_relaxed);
}

// ---- Wide-field (BN254 Fr/Fq) specializations. The tables operate
// ---- on the raw Montgomery limb view; reading the result back
// ---- through Fp is safe because every kernel output is canonical.

namespace {

template <typename P>
void
wideAddLanes(const Fp<P> *a, const Fp<P> *b, Fp<P> *out, size_t n)
{
    detail::countKernel(detail::Kernel::kWideAdd);
    WideSplit s = wideSplit(n);
    if (s.blocks_n)
        s.table->add(wideConstants<P>(), limbs(a), limbs(b), limbs(out),
                     s.blocks_n);
    for (size_t i = s.blocks_n; i < n; ++i)
        out[i] = a[i] + b[i];
}

template <typename P>
void
wideSubLanes(const Fp<P> *a, const Fp<P> *b, Fp<P> *out, size_t n)
{
    detail::countKernel(detail::Kernel::kWideSub);
    WideSplit s = wideSplit(n);
    if (s.blocks_n)
        s.table->sub(wideConstants<P>(), limbs(a), limbs(b), limbs(out),
                     s.blocks_n);
    for (size_t i = s.blocks_n; i < n; ++i)
        out[i] = a[i] - b[i];
}

template <typename P>
void
wideMulLanes(const Fp<P> *a, const Fp<P> *b, Fp<P> *out, size_t n)
{
    detail::countKernel(detail::Kernel::kWideMul);
    WideSplit s = wideSplit(n);
    if (s.blocks_n)
        s.table->mul(wideConstants<P>(), limbs(a), limbs(b), limbs(out),
                     s.blocks_n);
    for (size_t i = s.blocks_n; i < n; ++i)
        out[i] = a[i] * b[i];
}

template <typename P>
void
wideFoldLanes(Fp<P> *lo, const Fp<P> *hi, const Fp<P> &r, size_t n)
{
    detail::countKernel(detail::Kernel::kWideFold);
    WideSplit s = wideSplit(n);
    if (s.blocks_n)
        s.table->fold(wideConstants<P>(), limbs(lo), limbs(hi), limbs(&r),
                      s.blocks_n);
    for (size_t i = s.blocks_n; i < n; ++i)
        lo[i] = lo[i] + r * (hi[i] - lo[i]);
}

template <typename P>
void
wideAxpyLanes(Fp<P> *acc, const Fp<P> *x, const Fp<P> &s, size_t n)
{
    detail::countKernel(detail::Kernel::kWideAxpy);
    WideSplit w = wideSplit(n);
    if (w.blocks_n)
        w.table->axpy(wideConstants<P>(), limbs(acc), limbs(x), limbs(&s),
                      w.blocks_n);
    for (size_t i = w.blocks_n; i < n; ++i)
        acc[i] += s * x[i];
}

template <typename P>
Fp<P>
wideSumLanes(const Fp<P> *a, size_t n)
{
    detail::countKernel(detail::Kernel::kWideSum);
    WideSplit s = wideSplit(n);
    Fp<P> acc = Fp<P>::zero();
    if (s.blocks_n) {
        Fp<P> partial[detail::kIfmaLanes]; // room for the widest table
        s.table->sum(wideConstants<P>(), limbs(a), s.blocks_n, limbs(partial));
        for (size_t l = 0; l < s.lanes; ++l)
            acc += partial[l];
    }
    for (size_t i = s.blocks_n; i < n; ++i)
        acc += a[i];
    return acc;
}

template <typename P>
Fp<P>
wideDotLanes(const Fp<P> *a, const Fp<P> *b, size_t n)
{
    detail::countKernel(detail::Kernel::kWideDot);
    WideSplit s = wideSplit(n);
    Fp<P> acc = Fp<P>::zero();
    if (s.blocks_n) {
        Fp<P> partial[detail::kIfmaLanes]; // room for the widest table
        s.table->dot(wideConstants<P>(), limbs(a), limbs(b), s.blocks_n,
                     limbs(partial));
        for (size_t l = 0; l < s.lanes; ++l)
            acc += partial[l];
    }
    for (size_t i = s.blocks_n; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

} // namespace

template <>
void
addLanes<Bn254Fr>(const Bn254Fr *a, const Bn254Fr *b, Bn254Fr *out,
                  size_t n)
{
    wideAddLanes(a, b, out, n);
}

template <>
void
subLanes<Bn254Fr>(const Bn254Fr *a, const Bn254Fr *b, Bn254Fr *out,
                  size_t n)
{
    wideSubLanes(a, b, out, n);
}

template <>
void
mulLanes<Bn254Fr>(const Bn254Fr *a, const Bn254Fr *b, Bn254Fr *out,
                  size_t n)
{
    wideMulLanes(a, b, out, n);
}

template <>
void
foldLanes<Bn254Fr>(Bn254Fr *lo, const Bn254Fr *hi, const Bn254Fr &r,
                   size_t n)
{
    wideFoldLanes(lo, hi, r, n);
}

template <>
void
axpyLanes<Bn254Fr>(Bn254Fr *acc, const Bn254Fr *x, const Bn254Fr &s,
                   size_t n)
{
    wideAxpyLanes(acc, x, s, n);
}

template <>
Bn254Fr
sumLanes<Bn254Fr>(const Bn254Fr *a, size_t n)
{
    return wideSumLanes(a, n);
}

template <>
Bn254Fr
dotLanes<Bn254Fr>(const Bn254Fr *a, const Bn254Fr *b, size_t n)
{
    return wideDotLanes(a, b, n);
}

template <>
void
addLanes<Bn254Fq>(const Bn254Fq *a, const Bn254Fq *b, Bn254Fq *out,
                  size_t n)
{
    wideAddLanes(a, b, out, n);
}

template <>
void
subLanes<Bn254Fq>(const Bn254Fq *a, const Bn254Fq *b, Bn254Fq *out,
                  size_t n)
{
    wideSubLanes(a, b, out, n);
}

template <>
void
mulLanes<Bn254Fq>(const Bn254Fq *a, const Bn254Fq *b, Bn254Fq *out,
                  size_t n)
{
    wideMulLanes(a, b, out, n);
}

template <>
void
foldLanes<Bn254Fq>(Bn254Fq *lo, const Bn254Fq *hi, const Bn254Fq &r,
                   size_t n)
{
    wideFoldLanes(lo, hi, r, n);
}

template <>
void
axpyLanes<Bn254Fq>(Bn254Fq *acc, const Bn254Fq *x, const Bn254Fq &s,
                   size_t n)
{
    wideAxpyLanes(acc, x, s, n);
}

template <>
Bn254Fq
sumLanes<Bn254Fq>(const Bn254Fq *a, size_t n)
{
    return wideSumLanes(a, n);
}

template <>
Bn254Fq
dotLanes<Bn254Fq>(const Bn254Fq *a, const Bn254Fq *b, size_t n)
{
    return wideDotLanes(a, b, n);
}

} // namespace bzk::ff
