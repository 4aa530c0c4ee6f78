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
 * transposed in-register to a limb-major (struct-of-arrays) form, so
 * one __m512i holds the same limb of 8 elements. Montgomery
 * multiplication then runs in a redundant radix-2^52 representation
 * (five 52-bit limbs per element) where vpmadd52luq/vpmadd52huq do
 * 8x 52x52->104-bit multiply-accumulates per instruction.
 *
 * Domain fix-up: a 5-round radix-52 Montgomery reduction divides by
 * 2^260, not the 2^256 Fp's CIOS uses. Instead of leaving the
 * packed domain, one operand is pre-shifted left by 4 bits during the
 * 64->52-bit re-slicing, so the kernel computes
 * (a*2^4) * b * 2^-260 = a * b * 2^-256 mod p — the exact Fp
 * Montgomery product. The result is fully canonicalized (< p), and
 * since a*b*2^-256 mod p is a unique value, outputs are bit-identical
 * to Fp's operators despite the different radix. The drivers
 * run whole blocks only (WideKernels.h); FieldBackend.cpp finishes
 * each tail and adds sum's and dot's lane partials with Fp.
 *
 * Bounds: p < 2^255 (static-asserted via the 255-bit requirement in
 * Fp<>), so a*16 < 2^259 < 2^260 fits five 52-bit limbs and the
 * Montgomery result is < 2^252 + p < 2p — one conditional subtract
 * canonicalizes. Accumulator slots absorb at most ~25 products of
 * 52-bit values (< 2^57) before any carry is propagated, far inside
 * the 64-bit lane.
 */

#if defined(__x86_64__) || defined(_M_X64)

#include "ff/Ifma52.h"

namespace bzk::ff::detail {
namespace {

/** AoS block of 8 elements (32 limbs) -> limb-major L[0..3]. */
inline void
loadSoA(const uint64_t *p, V L[4])
{
    toSoA(_mm512_loadu_si512(p), _mm512_loadu_si512(p + 8),
          _mm512_loadu_si512(p + 16), _mm512_loadu_si512(p + 24), L);
}

/** Limb-major L[0..3] -> AoS block of 8 elements at @p p. */
inline void
storeAoS(uint64_t *p, const V L[4])
{
    V e[4];
    fromSoA(L, e);
    for (int q = 0; q < 4; ++q)
        _mm512_storeu_si512(p + 8 * q, e[q]);
}

/**
 * 8-way radix-52 Montgomery product: t = x * y * 2^-260 mod p,
 * canonical. x may be up to 2^259 (a pre-shifted operand); y must be
 * canonical.
 */
inline void
montMul52(const ConstsV &k, const V x[5], const V y[5], V t[5])
{
    V a0 = k.zero, a1 = k.zero, a2 = k.zero, a3 = k.zero, a4 = k.zero,
      a5 = k.zero;
    for (int i = 0; i < 5; ++i) {
        V yi = y[i];
        a0 = _mm512_madd52lo_epu64(a0, x[0], yi);
        a1 = _mm512_madd52lo_epu64(a1, x[1], yi);
        a2 = _mm512_madd52lo_epu64(a2, x[2], yi);
        a3 = _mm512_madd52lo_epu64(a3, x[3], yi);
        a4 = _mm512_madd52lo_epu64(a4, x[4], yi);
        a1 = _mm512_madd52hi_epu64(a1, x[0], yi);
        a2 = _mm512_madd52hi_epu64(a2, x[1], yi);
        a3 = _mm512_madd52hi_epu64(a3, x[2], yi);
        a4 = _mm512_madd52hi_epu64(a4, x[3], yi);
        a5 = _mm512_madd52hi_epu64(a5, x[4], yi);

        // m = -t0 * p^{-1} mod 2^52; folding in m*p zeroes the low
        // 52 bits of slot 0, whose exact carry then shifts the whole
        // accumulator down one limb.
        V m = _mm512_madd52lo_epu64(k.zero, a0, k.inv52);
        a0 = _mm512_madd52lo_epu64(a0, m, k.p52[0]);
        V carry = _mm512_srli_epi64(a0, 52);
        a1 = _mm512_add_epi64(a1, carry);
        a1 = _mm512_madd52lo_epu64(a1, m, k.p52[1]);
        a2 = _mm512_madd52lo_epu64(a2, m, k.p52[2]);
        a3 = _mm512_madd52lo_epu64(a3, m, k.p52[3]);
        a4 = _mm512_madd52lo_epu64(a4, m, k.p52[4]);
        a1 = _mm512_madd52hi_epu64(a1, m, k.p52[0]);
        a2 = _mm512_madd52hi_epu64(a2, m, k.p52[1]);
        a3 = _mm512_madd52hi_epu64(a3, m, k.p52[2]);
        a4 = _mm512_madd52hi_epu64(a4, m, k.p52[3]);
        a5 = _mm512_madd52hi_epu64(a5, m, k.p52[4]);
        a0 = a1;
        a1 = a2;
        a2 = a3;
        a3 = a4;
        a4 = a5;
        a5 = k.zero;
    }
    V acc[5] = {a0, a1, a2, a3, a4};
    for (int j = 0; j < 4; ++j) {
        V c = _mm512_srli_epi64(acc[j], 52);
        acc[j] = _mm512_and_si512(acc[j], k.mask52);
        acc[j + 1] = _mm512_add_epi64(acc[j + 1], c);
    }
    // Conditional subtract p (value < 2p). Limbs are < 2^52, so the
    // sign bit of the 64-bit difference is the borrow.
    V d[5];
    V bw = k.zero;
    for (int j = 0; j < 5; ++j) {
        V s = _mm512_sub_epi64(_mm512_sub_epi64(acc[j], k.p52[j]), bw);
        bw = _mm512_srli_epi64(s, 63);
        d[j] = _mm512_and_si512(s, k.mask52);
    }
    __mmask8 ge = _mm512_cmpeq_epi64_mask(bw, k.zero);
    for (int j = 0; j < 5; ++j)
        t[j] = _mm512_mask_blend_epi64(ge, acc[j], d[j]);
}

/** (a + b) mod p on limb-major radix-64 blocks, canonical in/out. */
inline void
addModSoA(const ConstsV &k, const V a[4], const V b[4], V out[4])
{
    // Canonical inputs sum below 2^256: no carry out of limb 3.
    V sum[4];
    V carry = k.zero;
    for (int j = 0; j < 4; ++j) {
        V s1 = _mm512_add_epi64(a[j], b[j]);
        __mmask8 c1 = _mm512_cmplt_epu64_mask(s1, a[j]);
        V s2 = _mm512_add_epi64(s1, carry);
        __mmask8 c2 = _mm512_cmplt_epu64_mask(s2, carry);
        sum[j] = s2;
        carry = _mm512_maskz_set1_epi64(c1 | c2, 1);
    }
    V d[4];
    V bw = k.zero;
    for (int j = 0; j < 4; ++j) {
        V d1 = _mm512_sub_epi64(sum[j], k.p64[j]);
        __mmask8 b1 = _mm512_cmplt_epu64_mask(sum[j], k.p64[j]);
        V d2 = _mm512_sub_epi64(d1, bw);
        __mmask8 b2 = _mm512_cmplt_epu64_mask(d1, bw);
        d[j] = d2;
        bw = _mm512_maskz_set1_epi64(b1 | b2, 1);
    }
    __mmask8 ge = _mm512_cmpeq_epi64_mask(bw, k.zero);
    for (int j = 0; j < 4; ++j)
        out[j] = _mm512_mask_blend_epi64(ge, sum[j], d[j]);
}

/** (a - b) mod p on limb-major radix-64 blocks, canonical in/out. */
inline void
subModSoA(const ConstsV &k, const V a[4], const V b[4], V out[4])
{
    V d[4];
    V bw = k.zero;
    for (int j = 0; j < 4; ++j) {
        V d1 = _mm512_sub_epi64(a[j], b[j]);
        __mmask8 b1 = _mm512_cmplt_epu64_mask(a[j], b[j]);
        V d2 = _mm512_sub_epi64(d1, bw);
        __mmask8 b2 = _mm512_cmplt_epu64_mask(d1, bw);
        d[j] = d2;
        bw = _mm512_maskz_set1_epi64(b1 | b2, 1);
    }
    __mmask8 neg = _mm512_cmpneq_epi64_mask(bw, k.zero);
    V carry = k.zero;
    for (int j = 0; j < 4; ++j) {
        V s1 = _mm512_mask_add_epi64(d[j], neg, d[j], k.p64[j]);
        __mmask8 c1 = _mm512_cmplt_epu64_mask(s1, d[j]);
        V s2 = _mm512_add_epi64(s1, carry);
        __mmask8 c2 = _mm512_cmplt_epu64_mask(s2, carry);
        out[j] = s2;
        carry = _mm512_maskz_set1_epi64(c1 | c2, 1);
    }
}

/** Montgomery product of two limb-major blocks (a gets the 2^4). */
inline void
mulModSoA(const ConstsV &k, const V a[4], const V b[4], V out[4])
{
    V x[5], y[5], t[5];
    to52<4>(k, a, x);
    to52<0>(k, b, y);
    montMul52(k, x, y, t);
    from52(t, out);
}

/** Broadcast one element's limbs to a limb-major block. */
inline void
broadcastSoA(const uint64_t *one, V L[4])
{
    for (int j = 0; j < 4; ++j)
        L[j] = _mm512_set1_epi64(static_cast<long long>(one[j]));
}

} // namespace

void
ifmaAdd(const WideFieldConstants &c, const uint64_t *a,
        const uint64_t *b, uint64_t *out, size_t n)
{
    ConstsV k = makeConstsV(c);
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V av[4], bv[4], ov[4];
        loadSoA(a + 4 * i, av);
        loadSoA(b + 4 * i, bv);
        addModSoA(k, av, bv, ov);
        storeAoS(out + 4 * i, ov);
    }
}

void
ifmaSub(const WideFieldConstants &c, const uint64_t *a,
        const uint64_t *b, uint64_t *out, size_t n)
{
    ConstsV k = makeConstsV(c);
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V av[4], bv[4], ov[4];
        loadSoA(a + 4 * i, av);
        loadSoA(b + 4 * i, bv);
        subModSoA(k, av, bv, ov);
        storeAoS(out + 4 * i, ov);
    }
}

void
ifmaMul(const WideFieldConstants &c, const uint64_t *a,
        const uint64_t *b, uint64_t *out, size_t n)
{
    ConstsV k = makeConstsV(c);
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V av[4], bv[4], ov[4];
        loadSoA(a + 4 * i, av);
        loadSoA(b + 4 * i, bv);
        mulModSoA(k, av, bv, ov);
        storeAoS(out + 4 * i, ov);
    }
}

void
ifmaFold(const WideFieldConstants &c, uint64_t *lo, const uint64_t *hi,
         const uint64_t *r, size_t n)
{
    ConstsV k = makeConstsV(c);
    V rv[4], r52[5];
    broadcastSoA(r, rv);
    to52<4>(k, rv, r52);
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V lov[4], hiv[4], dv[4], y[5], t[5], pv[4];
        loadSoA(lo + 4 * i, lov);
        loadSoA(hi + 4 * i, hiv);
        subModSoA(k, hiv, lov, dv);
        to52<0>(k, dv, y);
        montMul52(k, r52, y, t);
        from52(t, pv);
        addModSoA(k, lov, pv, lov);
        storeAoS(lo + 4 * i, lov);
    }
}

void
ifmaAxpy(const WideFieldConstants &c, uint64_t *acc, const uint64_t *x,
         const uint64_t *s, size_t n)
{
    ConstsV k = makeConstsV(c);
    V sv[4], s52[5];
    broadcastSoA(s, sv);
    to52<4>(k, sv, s52);
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V av[4], xv[4], y[5], t[5], pv[4];
        loadSoA(acc + 4 * i, av);
        loadSoA(x + 4 * i, xv);
        to52<0>(k, xv, y);
        montMul52(k, s52, y, t);
        from52(t, pv);
        addModSoA(k, av, pv, av);
        storeAoS(acc + 4 * i, av);
    }
}

void
ifmaSum(const WideFieldConstants &c, const uint64_t *a, size_t n,
        uint64_t *out_lanes)
{
    ConstsV k = makeConstsV(c);
    V acc[4] = {k.zero, k.zero, k.zero, k.zero};
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V av[4];
        loadSoA(a + 4 * i, av);
        addModSoA(k, acc, av, acc);
    }
    storeAoS(out_lanes, acc);
}

void
ifmaDot(const WideFieldConstants &c, const uint64_t *a,
        const uint64_t *b, size_t n, uint64_t *out_lanes)
{
    ConstsV k = makeConstsV(c);
    V acc[4] = {k.zero, k.zero, k.zero, k.zero};
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V av[4], bv[4], pv[4];
        loadSoA(a + 4 * i, av);
        loadSoA(b + 4 * i, bv);
        mulModSoA(k, av, bv, pv);
        addModSoA(k, acc, pv, acc);
    }
    storeAoS(out_lanes, acc);
}

} // namespace bzk::ff::detail

#endif // __x86_64__
