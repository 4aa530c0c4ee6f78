/**
 * @file
 * 8-way AVX-512 IFMA wide-field kernels (BN254 Fr/Fq class moduli).
 * Compiled with -mavx512ifma in its own translation unit; only
 * reached after __builtin_cpu_supports("avx512ifma") (see
 * FieldBackend.cpp), so no illegal instruction can leak onto
 * non-IFMA hosts.
 *
 * Lane layout: elements are stored AoS (4 little-endian 64-bit limbs
 * each, Montgomery form with R = 2^256); each block of 8 elements is
 * loaded into five radix-2^52 registers, one element per 64-bit lane
 * (load52), and every operation runs on those limbs with the Ifma52.h
 * helpers, where vpmadd52luq/vpmadd52huq do 8x 52x52->104-bit
 * multiply-accumulates per instruction.
 *
 * Products: the first operand is loaded with the 2^4 pre-shift, so
 * the Ifma52.h reduction, which divides by 2^260, leaves
 * a * b * 2^-256 mod p, Fp's Montgomery product; Ifma52.h gives the
 * bound. Every result is canonical (< p), and since each is a unique
 * value, outputs are bit-identical to Fp's operators despite the
 * different radix. The drivers run whole blocks only (WideKernels.h);
 * FieldBackend.cpp finishes each tail and adds sum's and dot's lane
 * partials with Fp.
 *
 * mul, fold and axpy take four blocks per iteration: their products
 * go to slots first and one montReduce<4> runs the four reductions
 * interleaved, as the gate kernel batches its own, so the dependency
 * chains of the five Montgomery rounds overlap. Single blocks finish
 * each call.
 *
 * The row combination (ifmaCombineRows) reduces once per column
 * instead of once per row. Neither operand is pre-shifted: each
 * row's product C * X of two canonical Montgomery integers adds its
 * 25 partial products to ten slots unreduced (Ifma52.h's mulAcc, 50
 * vpmadd52 against a reduced product's 105). A span of at most
 * kCombineRowsSpan = 256 rows keeps every slot below
 * 256 * 9 * 2^52 < 2^64 and the sum S below 256 p^2, so, as in the
 * gate kernel, redcSlots leaves S / 2^260 + p < 5p for p < 2^254, and
 * four conditional subtractions give the canonical
 * t = S * 2^-260 mod p. Four modular doublings make it
 * S * 2^-256 mod p, the Montgomery form of the span's sum, and each
 * later span adds onto the stored result.
 */

#if defined(__x86_64__) || defined(_M_X64)

#include <algorithm>

#include "ff/Ifma52.h"

namespace bzk::ff::detail {
namespace {

/** Limbs per block of 8 elements. */
constexpr size_t kBlockLimbs = 4 * kIfmaLanes;

/**
 * Blocks per batch of mul, fold and axpy, whose reductions run as one
 * montReduce<kBatch>; single blocks finish each call.
 */
constexpr int kBatch = 4;
constexpr size_t kBatchLanes = kBatch * kIfmaLanes;

/**
 * Rows ahead that the row combination prefetches. It walks down a
 * column block one row stride at a time (8 KiB at n_vars = 16), which
 * the hardware's streaming prefetch does not follow across pages, and
 * a row that misses the caches costs several rows' worth of vpmadd52.
 */
constexpr size_t kCombinePrefetch = 16;

/** out = a * b over N blocks; every block is read before any store. */
template <int N>
[[gnu::always_inline]] inline void
mulBlocks(const ConstsV &k, const uint64_t *a, const uint64_t *b,
          uint64_t *out)
{
    V s[N][kSlots], t[N][5];
#pragma GCC unroll 4
    for (int v = 0; v < N; ++v) {
        V x[5], y[5];
        load52<4>(k, a + kBlockLimbs * v, x);
        load52<0>(k, b + kBlockLimbs * v, y);
        mulSlots(k, x, y, s[v]);
    }
    montReduce<N>(k, s, t);
#pragma GCC unroll 4
    for (int v = 0; v < N; ++v)
        store52(t[v], out + kBlockLimbs * v);
}

/** out = lo + r * (hi - lo) over N blocks, @p rv = 16 r. */
template <int N>
[[gnu::always_inline]] inline void
foldBlocks(const ConstsV &k, const V rv[5], uint64_t *out,
           const uint64_t *lo, const uint64_t *hi)
{
    V x[N][5], s[N][kSlots], t[N][5];
#pragma GCC unroll 4
    for (int v = 0; v < N; ++v) {
        V d[5];
        load52<0>(k, lo + kBlockLimbs * v, x[v]);
        load52<0>(k, hi + kBlockLimbs * v, d);
        subMod52(k, d, x[v], d);
        mulSlots(k, rv, d, s[v]);
    }
    montReduce<N>(k, s, t);
#pragma GCC unroll 4
    for (int v = 0; v < N; ++v) {
        addMod52(k, x[v], t[v], t[v]);
        store52(t[v], out + kBlockLimbs * v);
    }
}

/** acc += s * x over N blocks, @p sv = 16 s. */
template <int N>
[[gnu::always_inline]] inline void
axpyBlocks(const ConstsV &k, const V sv[5], uint64_t *acc,
           const uint64_t *x)
{
    V s[N][kSlots], t[N][5];
#pragma GCC unroll 4
    for (int v = 0; v < N; ++v) {
        V xv[5];
        load52<0>(k, x + kBlockLimbs * v, xv);
        mulSlots(k, sv, xv, s[v]);
    }
    montReduce<N>(k, s, t);
#pragma GCC unroll 4
    for (int v = 0; v < N; ++v) {
        V av[5];
        load52<0>(k, acc + kBlockLimbs * v, av);
        addMod52(k, av, t[v], t[v]);
        store52(t[v], acc + kBlockLimbs * v);
    }
}

} // namespace

void
ifmaAdd(const WideFieldConstants &c, const uint64_t *a,
        const uint64_t *b, uint64_t *out, size_t n)
{
    ConstsV k = makeConstsV(c);
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V x[5], y[5];
        load52<0>(k, a + 4 * i, x);
        load52<0>(k, b + 4 * i, y);
        addMod52(k, x, y, x);
        store52(x, out + 4 * i);
    }
}

void
ifmaSub(const WideFieldConstants &c, const uint64_t *a,
        const uint64_t *b, uint64_t *out, size_t n)
{
    ConstsV k = makeConstsV(c);
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V x[5], y[5];
        load52<0>(k, a + 4 * i, x);
        load52<0>(k, b + 4 * i, y);
        subMod52(k, x, y, x);
        store52(x, out + 4 * i);
    }
}

void
ifmaMul(const WideFieldConstants &c, const uint64_t *a,
        const uint64_t *b, uint64_t *out, size_t n)
{
    ConstsV k = makeConstsV(c);
    size_t i = 0;
    for (; i + kBatchLanes <= n; i += kBatchLanes)
        mulBlocks<kBatch>(k, a + 4 * i, b + 4 * i, out + 4 * i);
    for (; i < n; i += kIfmaLanes)
        mulBlocks<1>(k, a + 4 * i, b + 4 * i, out + 4 * i);
}

void
ifmaFold(const WideFieldConstants &c, uint64_t *out, const uint64_t *lo,
         const uint64_t *hi, const uint64_t *r, size_t n)
{
    ConstsV k = makeConstsV(c);
    V rv[5];
    broadcast52<4>(k, r, rv);
    size_t i = 0;
    for (; i + kBatchLanes <= n; i += kBatchLanes)
        foldBlocks<kBatch>(k, rv, out + 4 * i, lo + 4 * i, hi + 4 * i);
    for (; i < n; i += kIfmaLanes)
        foldBlocks<1>(k, rv, out + 4 * i, lo + 4 * i, hi + 4 * i);
}

void
ifmaAxpy(const WideFieldConstants &c, uint64_t *acc, const uint64_t *x,
         const uint64_t *s, size_t n)
{
    ConstsV k = makeConstsV(c);
    V sv[5];
    broadcast52<4>(k, s, sv);
    size_t i = 0;
    for (; i + kBatchLanes <= n; i += kBatchLanes)
        axpyBlocks<kBatch>(k, sv, acc + 4 * i, x + 4 * i);
    for (; i < n; i += kIfmaLanes)
        axpyBlocks<1>(k, sv, acc + 4 * i, x + 4 * i);
}

void
ifmaSum(const WideFieldConstants &c, const uint64_t *a, size_t n,
        uint64_t *out_lanes)
{
    ConstsV k = makeConstsV(c);
    V acc[5] = {k.zero, k.zero, k.zero, k.zero, k.zero};
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V x[5];
        load52<0>(k, a + 4 * i, x);
        addMod52(k, acc, x, acc);
    }
    store52(acc, out_lanes);
}

void
ifmaDot(const WideFieldConstants &c, const uint64_t *a,
        const uint64_t *b, size_t n, uint64_t *out_lanes)
{
    ConstsV k = makeConstsV(c);
    V acc[5] = {k.zero, k.zero, k.zero, k.zero, k.zero};
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V x[5], y[5];
        load52<4>(k, a + 4 * i, x);
        load52<0>(k, b + 4 * i, y);
        mulMod52(k, x, y, x);
        addMod52(k, acc, x, acc);
    }
    store52(acc, out_lanes);
}

void
ifmaCombineRows(const WideFieldConstants &c, const uint64_t *rows,
                size_t row_stride, const uint64_t *coeffs, size_t n_rows,
                uint64_t *out, size_t n)
{
    ConstsV k = makeConstsV(c);
    // One span's coefficients in radix 52; each limb is broadcast
    // straight from here.
    uint64_t c52[kCombineRowsSpan][5];
    for (size_t r0 = 0; r0 < n_rows; r0 += kCombineRowsSpan) {
        const size_t span = std::min(kCombineRowsSpan, n_rows - r0);
        for (size_t r = 0; r < span; ++r)
            toRadix52(coeffs + 4 * (r0 + r), c52[r]);
        for (size_t j = 0; j < n; j += kIfmaLanes) {
            V acc[1][kSlots];
#pragma GCC unroll 16
            for (V &slot : acc[0])
                slot = k.zero;
            const uint64_t *x = rows + r0 * row_stride + 4 * j;
            for (size_t r = 0; r < span; ++r, x += row_stride) {
                if (r + kCombinePrefetch < span) {
                    const char *ahead = reinterpret_cast<const char *>(
                        x + kCombinePrefetch * row_stride);
#pragma GCC unroll 4
                    for (int line = 0; line < 4; ++line)
                        _mm_prefetch(ahead + 64 * line, _MM_HINT_T0);
                }
                V xv[5], cv[5];
                load52<0>(k, x, xv);
#pragma GCC unroll 16
                for (int l = 0; l < 5; ++l)
                    cv[l] = _mm512_set1_epi64(
                        static_cast<long long>(c52[r][l]));
                mulAcc(acc[0], xv, cv);
            }
            // Below 5p after the reduction; 16 t is the span's sum.
            V t[1][5];
            carry52<kSlots>(k, acc[0]);
            redcSlots<1>(k, acc, t);
#pragma GCC unroll 4
            for (int sub = 0; sub < 4; ++sub)
                subPIfAbove(k, t[0]);
#pragma GCC unroll 4
            for (int dbl = 0; dbl < 4; ++dbl)
                addMod52(k, t[0], t[0], t[0]);
            if (r0 > 0) {
                V prev[5];
                load52<0>(k, out + 4 * j, prev);
                addMod52(k, prev, t[0], t[0]);
            }
            store52(t[0], out + 4 * j);
        }
    }
}

} // namespace bzk::ff::detail

#endif // __x86_64__
