#ifndef BZK_FF_IFMA52_H_
#define BZK_FF_IFMA52_H_

/**
 * @file
 * The radix-2^52 arithmetic of the AVX-512 IFMA translation units
 * (WideKernelsIfma.cpp, RowKernelsIfma.cpp, GateKernelsIfma.cpp): load
 * and store, modular addition and subtraction, products and the one
 * Montgomery reduction. Include it only from a TU compiled with
 * -mavx512f -mavx512ifma: everything here is AVX-512 code.
 *
 * One __m512i holds the same limb of 8 values, one per 64-bit lane.
 * A 4x64 value re-slices into five 52-bit limbs, the operand width of
 * vpmadd52luq/vpmadd52huq.
 *
 * Products: mulSlots and sqrSlots write the 25 partial products of
 * two five-limb values to ten 64-bit slots, low halves to slot i + j
 * and high halves to slot i + j + 1, with no carry. A slot takes at
 * most 9 halves, each below 2^52.
 *
 * Reduction: redcSlots divides a value S held in ten slots by 2^260
 * modulo p. Each of its five rounds adds m * p, with m < 2^52 chosen to
 * clear the lowest slot, so it returns (S + M p) / 2^260 for some
 * M < 2^260: below S / 2^260 + p. For S < 2^260 p that is below 2p,
 * and montReduce's one conditional subtraction leaves the canonical
 * residue. Every reduced product in the three TUs is of that kind: two
 * canonical values (below p < 2^255), at most one of them pre-shifted
 * by 2^4, multiply to below 2^259 p. The gate kernel's per-call
 * reduction of a sum of products is the one other use; its file
 * comment bounds that S.
 *
 * The 2^4 pre-shift: Fp's Montgomery product divides by R = 2^256, the
 * reduction by 2^260. An operand loaded with Shift = 4 carries the
 * missing 2^4, so (16 a) b / 2^260 = a b / 2^256 mod p, Fp's product
 * bit for bit (the lane kernels); reducing 16 x alone maps a
 * Montgomery-form x to its canonical value x / 2^256 (the row kernel's
 * load). Loaded with no pre-shift, a reduced product is short by 2^4
 * against Fp's (the gate kernel, which scales its sums once in Fp).
 *
 * Every helper is always inlined and every fixed-count loop carries an
 * unroll pragma, so each kernel compiles straight-line at any -O from
 * -O1 up: without them GCC 12 at -O2 leaves these loops rolled and
 * outlines the larger helpers, which keeps the limbs on the stack.
 * tests/test_ifma_unrolled.sh checks the vpmadd52 count of every
 * kernel.
 */

#include <immintrin.h>

#include "ff/WideKernels.h"

namespace bzk::ff::detail {

using V = __m512i;
static_assert(kIfmaLanes * sizeof(uint64_t) == sizeof(V),
              "one element per 64-bit lane");

/** Radix-2^52 slots of an unreduced product of two five-limb values. */
inline constexpr int kSlots = 10;

// Broadcast constants come from per-call setup, not file-scope
// globals: a global __m512i initializer would execute AVX-512
// instructions during static init on hosts that must never reach this
// TU's code.

/** Per-call vector view of one field's constants. */
struct ConstsV
{
    V p52[5];  // modulus, radix-52 limbs
    V inv52;   // -p^{-1} mod 2^52
    V mask52;
    V zero;
};

inline ConstsV
makeConstsV(const WideFieldConstants &c)
{
    ConstsV k;
    for (int j = 0; j < 5; ++j)
        k.p52[j] = _mm512_set1_epi64(
            static_cast<long long>(c.modulus52[j]));
    k.inv52 = _mm512_set1_epi64(static_cast<long long>(c.inv52));
    k.mask52 = _mm512_set1_epi64(static_cast<long long>(kMask52));
    k.zero = _mm512_setzero_si512();
    return k;
}

/**
 * 8 elements of four radix-64 limbs, two per register in element
 * order (@p a holds elements 0 and 1, ... @p d elements 6 and 7) ->
 * limb-major L[0..3]: L[j] holds limb j of the 8 elements.
 */
[[gnu::always_inline]] inline void
toSoA(V a, V b, V c, V d, V L[4])
{
    const V idx01 = _mm512_setr_epi64(0, 4, 8, 12, 1, 5, 9, 13);
    const V idx23 = _mm512_setr_epi64(2, 6, 10, 14, 3, 7, 11, 15);
    V ab01 = _mm512_permutex2var_epi64(a, idx01, b);
    V cd01 = _mm512_permutex2var_epi64(c, idx01, d);
    V ab23 = _mm512_permutex2var_epi64(a, idx23, b);
    V cd23 = _mm512_permutex2var_epi64(c, idx23, d);
    const V lo_half = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    const V hi_half = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
    L[0] = _mm512_permutex2var_epi64(ab01, lo_half, cd01);
    L[1] = _mm512_permutex2var_epi64(ab01, hi_half, cd01);
    L[2] = _mm512_permutex2var_epi64(ab23, lo_half, cd23);
    L[3] = _mm512_permutex2var_epi64(ab23, hi_half, cd23);
}

/** toSoA's inverse: limb-major L[0..3] -> e[q] = elements 2q, 2q + 1. */
[[gnu::always_inline]] inline void
fromSoA(const V L[4], V e[4])
{
    const V pair_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const V pair_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    V l01_lo = _mm512_permutex2var_epi64(L[0], pair_lo, L[1]);
    V l01_hi = _mm512_permutex2var_epi64(L[0], pair_hi, L[1]);
    V l23_lo = _mm512_permutex2var_epi64(L[2], pair_lo, L[3]);
    V l23_hi = _mm512_permutex2var_epi64(L[2], pair_hi, L[3]);
    const V quad_lo = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const V quad_hi = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    e[0] = _mm512_permutex2var_epi64(l01_lo, quad_lo, l23_lo);
    e[1] = _mm512_permutex2var_epi64(l01_lo, quad_hi, l23_lo);
    e[2] = _mm512_permutex2var_epi64(l01_hi, quad_lo, l23_hi);
    e[3] = _mm512_permutex2var_epi64(l01_hi, quad_hi, l23_hi);
}

/**
 * Re-slice radix-64 limbs into radix-52, multiplying by 2^Shift
 * (Shift = 0, or 4 for the pre-shifted operand). Canonical inputs are
 * < p < 2^255, so both variants fit five 52-bit limbs.
 */
template <int Shift>
[[gnu::always_inline]] inline void
to52(const ConstsV &k, const V L[4], V t[5])
{
    static_assert(Shift == 0 || Shift == 4, "supported pre-shifts");
    if constexpr (Shift == 0) {
        t[0] = _mm512_and_si512(L[0], k.mask52);
        t[1] = _mm512_and_si512(
            _mm512_or_si512(_mm512_srli_epi64(L[0], 52),
                            _mm512_slli_epi64(L[1], 12)),
            k.mask52);
        t[2] = _mm512_and_si512(
            _mm512_or_si512(_mm512_srli_epi64(L[1], 40),
                            _mm512_slli_epi64(L[2], 24)),
            k.mask52);
        t[3] = _mm512_and_si512(
            _mm512_or_si512(_mm512_srli_epi64(L[2], 28),
                            _mm512_slli_epi64(L[3], 36)),
            k.mask52);
        t[4] = _mm512_srli_epi64(L[3], 16);
    } else {
        t[0] = _mm512_and_si512(_mm512_slli_epi64(L[0], 4), k.mask52);
        t[1] = _mm512_and_si512(
            _mm512_or_si512(_mm512_srli_epi64(L[0], 48),
                            _mm512_slli_epi64(L[1], 16)),
            k.mask52);
        t[2] = _mm512_and_si512(
            _mm512_or_si512(_mm512_srli_epi64(L[1], 36),
                            _mm512_slli_epi64(L[2], 28)),
            k.mask52);
        t[3] = _mm512_and_si512(
            _mm512_or_si512(_mm512_srli_epi64(L[2], 24),
                            _mm512_slli_epi64(L[3], 40)),
            k.mask52);
        t[4] = _mm512_srli_epi64(L[3], 12);
    }
}

/** Canonical radix-52 limbs (< 2^52 each) back to radix-64. */
[[gnu::always_inline]] inline void
from52(const V t[5], V L[4])
{
    L[0] = _mm512_or_si512(t[0], _mm512_slli_epi64(t[1], 52));
    L[1] = _mm512_or_si512(_mm512_srli_epi64(t[1], 12),
                           _mm512_slli_epi64(t[2], 40));
    L[2] = _mm512_or_si512(_mm512_srli_epi64(t[2], 24),
                           _mm512_slli_epi64(t[3], 28));
    L[3] = _mm512_or_si512(_mm512_srli_epi64(t[3], 36),
                           _mm512_slli_epi64(t[4], 16));
}

/** The 8 elements at @p p (4 limbs each), times 2^Shift, in radix 52. */
template <int Shift>
[[gnu::always_inline]] inline void
load52(const ConstsV &k, const uint64_t *p, V x[5])
{
    V L[4];
    toSoA(_mm512_loadu_si512(p), _mm512_loadu_si512(p + 8),
          _mm512_loadu_si512(p + 16), _mm512_loadu_si512(p + 24), L);
    to52<Shift>(k, L, x);
}

/** The same for element l at p + l * stride (limbs), l < 8. */
template <int Shift>
[[gnu::always_inline]] inline void
load52(const ConstsV &k, const uint64_t *p, size_t stride, V x[5])
{
    V e[4], L[4];
#pragma GCC unroll 4
    for (size_t q = 0; q < 4; ++q)
        e[q] = _mm512_inserti64x4(
            _mm512_castsi256_si512(_mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(p + 2 * q * stride))),
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                p + (2 * q + 1) * stride)),
            1);
    toSoA(e[0], e[1], e[2], e[3], L);
    to52<Shift>(k, L, x);
}

/** One element at @p one, times 2^Shift, in all 8 lanes. */
template <int Shift>
[[gnu::always_inline]] inline void
broadcast52(const ConstsV &k, const uint64_t *one, V x[5])
{
    V L[4];
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j)
        L[j] = _mm512_set1_epi64(static_cast<long long>(one[j]));
    to52<Shift>(k, L, x);
}

/** Canonical radix-52 values to the 8 elements at @p p. */
[[gnu::always_inline]] inline void
store52(const V x[5], uint64_t *p)
{
    V L[4], e[4];
    from52(x, L);
    fromSoA(L, e);
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q)
        _mm512_storeu_si512(p + 8 * q, e[q]);
}

/** The same, element l to p + l * stride (limbs). */
[[gnu::always_inline]] inline void
store52(const V x[5], uint64_t *p, size_t stride)
{
    V L[4], e[4];
    from52(x, L);
    fromSoA(L, e);
#pragma GCC unroll 4
    for (size_t q = 0; q < 4; ++q) {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p + 2 * q * stride),
                            _mm512_castsi512_si256(e[q]));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(p + (2 * q + 1) * stride),
            _mm512_extracti64x4_epi64(e[q], 1));
    }
}

/** Carry every slot of @p a[0..N-1] into 52-bit limbs, the rest up. */
template <int N>
[[gnu::always_inline]] inline void
carry52(const ConstsV &k, V a[N])
{
#pragma GCC unroll 16
    for (int j = 0; j + 1 < N; ++j) {
        a[j + 1] = _mm512_add_epi64(a[j + 1], _mm512_srli_epi64(a[j], 52));
        a[j] = _mm512_and_si512(a[j], k.mask52);
    }
}

/**
 * x - p where that does not borrow, else x: canonical for x < 2p.
 * Limbs are below 2^52, so the sign bit of each 64-bit difference is
 * the borrow.
 */
[[gnu::always_inline]] inline void
subPIfAbove(const ConstsV &k, V x[5])
{
    V d[5];
    V bw = k.zero;
#pragma GCC unroll 16
    for (int j = 0; j < 5; ++j) {
        V s = _mm512_sub_epi64(_mm512_sub_epi64(x[j], k.p52[j]), bw);
        bw = _mm512_srli_epi64(s, 63);
        d[j] = _mm512_and_si512(s, k.mask52);
    }
    __mmask8 ge = _mm512_cmpeq_epi64_mask(bw, k.zero);
#pragma GCC unroll 16
    for (int j = 0; j < 5; ++j)
        x[j] = _mm512_mask_blend_epi64(ge, x[j], d[j]);
}

/** (x + y) mod p on canonical radix-52 values; out may be x or y. */
[[gnu::always_inline]] inline void
addMod52(const ConstsV &k, const V x[5], const V y[5], V out[5])
{
#pragma GCC unroll 16
    for (int j = 0; j < 5; ++j)
        out[j] = _mm512_add_epi64(x[j], y[j]);
    carry52<5>(k, out);
    subPIfAbove(k, out);
}

/** (x - y) mod p on canonical radix-52 values; out may be x or y. */
[[gnu::always_inline]] inline void
subMod52(const ConstsV &k, const V x[5], const V y[5], V out[5])
{
    V bw = k.zero;
#pragma GCC unroll 16
    for (int j = 0; j < 5; ++j) {
        V s = _mm512_sub_epi64(_mm512_sub_epi64(x[j], y[j]), bw);
        bw = _mm512_srli_epi64(s, 63);
        out[j] = _mm512_and_si512(s, k.mask52);
    }
    // A final borrow leaves x - y + 2^260: adding p and dropping the
    // carry out of the top limb gives x - y + p.
    __mmask8 neg = _mm512_cmpneq_epi64_mask(bw, k.zero);
#pragma GCC unroll 16
    for (int j = 0; j < 5; ++j)
        out[j] = _mm512_mask_add_epi64(out[j], neg, out[j], k.p52[j]);
    carry52<5>(k, out);
    out[4] = _mm512_and_si512(out[4], k.mask52);
}

/** acc += x * y as integers, unreduced (file comment). */
[[gnu::always_inline]] inline void
mulAcc(V acc[kSlots], const V x[5], const V y[5])
{
#pragma GCC unroll 16
    for (int i = 0; i < 5; ++i) {
#pragma GCC unroll 16
        for (int j = 0; j < 5; ++j) {
            acc[i + j] = _mm512_madd52lo_epu64(acc[i + j], x[i], y[j]);
            acc[i + j + 1] =
                _mm512_madd52hi_epu64(acc[i + j + 1], x[i], y[j]);
        }
    }
}

/** s = x * y as integers in ten slots. */
[[gnu::always_inline]] inline void
mulSlots(const ConstsV &k, const V x[5], const V y[5], V s[kSlots])
{
#pragma GCC unroll 16
    for (int j = 0; j < kSlots; ++j)
        s[j] = k.zero;
    mulAcc(s, x, y);
}

/**
 * s = x^2 as integers in ten slots: the 10 cross products once,
 * doubled, then the 5 squares, 15 partial products in all.
 */
[[gnu::always_inline]] inline void
sqrSlots(const ConstsV &k, const V x[5], V s[kSlots])
{
#pragma GCC unroll 16
    for (int j = 0; j < kSlots; ++j)
        s[j] = k.zero;
#pragma GCC unroll 16
    for (int i = 0; i < 5; ++i) {
#pragma GCC unroll 16
        for (int j = i + 1; j < 5; ++j) {
            s[i + j] = _mm512_madd52lo_epu64(s[i + j], x[i], x[j]);
            s[i + j + 1] = _mm512_madd52hi_epu64(s[i + j + 1], x[i], x[j]);
        }
    }
#pragma GCC unroll 16
    for (int j = 1; j < kSlots - 1; ++j)
        s[j] = _mm512_add_epi64(s[j], s[j]);
#pragma GCC unroll 16
    for (int i = 0; i < 5; ++i) {
        s[2 * i] = _mm512_madd52lo_epu64(s[2 * i], x[i], x[i]);
        s[2 * i + 1] = _mm512_madd52hi_epu64(s[2 * i + 1], x[i], x[i]);
    }
}

/**
 * t[v] = s[v] / 2^260 mod p plus a multiple of p, below
 * s[v] / 2^260 + p (file comment), for v < N: five Montgomery rounds
 * over each value's ten slots, which they overwrite, the N values'
 * steps interleaved so their dependency chains overlap. The limbs of
 * t[v] are below 2^52 but the top one, which takes the rest.
 */
template <int N>
[[gnu::always_inline]] inline void
redcSlots(const ConstsV &k, V (*s)[kSlots], V (*t)[5])
{
#pragma GCC unroll 16
    for (int i = 0; i < 5; ++i) {
        // m clears the low 52 bits of slot i; its exact carry and the
        // rest of m * p then leave the value in the slots above.
        V m[N];
#pragma GCC unroll 16
        for (int v = 0; v < N; ++v)
            m[v] = _mm512_madd52lo_epu64(k.zero, s[v][i], k.inv52);
#pragma GCC unroll 16
        for (int v = 0; v < N; ++v) {
            s[v][i] = _mm512_madd52lo_epu64(s[v][i], m[v], k.p52[0]);
            s[v][i + 1] = _mm512_add_epi64(s[v][i + 1],
                                           _mm512_srli_epi64(s[v][i], 52));
        }
#pragma GCC unroll 16
        for (int j = 1; j < 5; ++j)
#pragma GCC unroll 16
            for (int v = 0; v < N; ++v)
                s[v][i + j] =
                    _mm512_madd52lo_epu64(s[v][i + j], m[v], k.p52[j]);
#pragma GCC unroll 16
        for (int j = 0; j < 5; ++j)
#pragma GCC unroll 16
            for (int v = 0; v < N; ++v)
                s[v][i + j + 1] =
                    _mm512_madd52hi_epu64(s[v][i + j + 1], m[v], k.p52[j]);
    }
#pragma GCC unroll 16
    for (int v = 0; v < N; ++v) {
#pragma GCC unroll 16
        for (int j = 0; j < 5; ++j)
            t[v][j] = s[v][5 + j];
        carry52<5>(k, t[v]);
    }
}

/** Canonical t[v] = s[v] / 2^260 mod p for s[v] < 2^260 p, v < N. */
template <int N>
[[gnu::always_inline]] inline void
montReduce(const ConstsV &k, V (*s)[kSlots], V (*t)[5])
{
    redcSlots<N>(k, s, t);
#pragma GCC unroll 16
    for (int v = 0; v < N; ++v)
        subPIfAbove(k, t[v]);
}

/** Canonical t = x * y / 2^260 mod p for x * y < 2^260 p. */
[[gnu::always_inline]] inline void
mulMod52(const ConstsV &k, const V x[5], const V y[5], V t[5])
{
    V s[1][kSlots], r[1][5];
    mulSlots(k, x, y, s[0]);
    montReduce<1>(k, s, r);
#pragma GCC unroll 16
    for (int j = 0; j < 5; ++j)
        t[j] = r[0][j];
}

} // namespace bzk::ff::detail

#endif // BZK_FF_IFMA52_H_
