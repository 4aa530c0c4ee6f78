#ifndef BZK_FF_IFMA52_H_
#define BZK_FF_IFMA52_H_

/**
 * @file
 * Radix-2^52 helpers shared by the AVX-512 IFMA translation units
 * (WideKernelsIfma.cpp, RowKernelsIfma.cpp, GateKernelsIfma.cpp).
 * Include it only from a TU compiled with -mavx512f -mavx512ifma:
 * everything here is AVX-512 code.
 *
 * One __m512i holds the same limb of 8 values, one per 64-bit lane.
 * A 4x64 value re-slices into five 52-bit limbs, the operand width of
 * vpmadd52luq/vpmadd52huq.
 */

#include <immintrin.h>

#include "ff/WideKernels.h"

namespace bzk::ff::detail {

using V = __m512i;
static_assert(kIfmaLanes * sizeof(uint64_t) == sizeof(V),
              "one element per 64-bit lane");

// Broadcast constants come from per-call setup, not file-scope
// globals: a global __m512i initializer would execute AVX-512
// instructions during static init on hosts that must never reach this
// TU's code.

/** Per-call vector view of one field's constants. */
struct ConstsV
{
    V p64[4];  // modulus, radix-64 limbs
    V p52[5];  // modulus, radix-52 limbs
    V inv52;   // -p^{-1} mod 2^52
    V mask52;
    V zero;
    V one;
};

inline ConstsV
makeConstsV(const WideFieldConstants &c)
{
    ConstsV k;
    for (int j = 0; j < 4; ++j)
        k.p64[j] = _mm512_set1_epi64(
            static_cast<long long>(c.modulus[j]));
    for (int j = 0; j < 5; ++j)
        k.p52[j] = _mm512_set1_epi64(
            static_cast<long long>(c.modulus52[j]));
    k.inv52 = _mm512_set1_epi64(static_cast<long long>(c.inv52));
    k.mask52 = _mm512_set1_epi64(static_cast<long long>(kMask52));
    k.zero = _mm512_setzero_si512();
    k.one = _mm512_set1_epi64(1);
    return k;
}

/**
 * 8 elements of four radix-64 limbs, two per register in element
 * order (@p a holds elements 0 and 1, ... @p d elements 6 and 7) ->
 * limb-major L[0..3]: L[j] holds limb j of the 8 elements.
 */
inline void
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
inline void
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
 * (Shift = 0, or 4 for the Montgomery-domain fix-up operand).
 * Requires the value < 2^(256-Shift) + headroom; canonical inputs are
 * < p < 2^255 so both variants fit five 52-bit limbs.
 */
template <int Shift>
inline void
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
inline void
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

/** Carry every slot of @p a[0..N-1] into 52-bit limbs, the rest up. */
template <int N>
inline void
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
inline void
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
inline void
addMod52(const ConstsV &k, const V x[5], const V y[5], V out[5])
{
#pragma GCC unroll 16
    for (int j = 0; j < 5; ++j)
        out[j] = _mm512_add_epi64(x[j], y[j]);
    carry52<5>(k, out);
    subPIfAbove(k, out);
}

/** (x - y) mod p on canonical radix-52 values; out may be x or y. */
inline void
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

} // namespace bzk::ff::detail

#endif // BZK_FF_IFMA52_H_
