/**
 * @file
 * 4-way AVX2 wide-field kernels (BN254 Fr/Fq class moduli). Compiled
 * with -mavx2 in its own translation unit; only reached after
 * __builtin_cpu_supports("avx2") (see FieldBackend.cpp).
 *
 * Layout: each block of 4 elements is transposed in-register from AoS
 * (four 64-bit limbs per element) to limb-major vectors, then the
 * radix-64 CIOS Montgomery loop of Fp<>::montMul runs verbatim with
 * the 128-bit accumulator split across (lo, carry) lane vectors. AVX2
 * has no 64x64->128 multiply or unsigned 64-bit compare, so products
 * go through four 32x32->64 partial products (mul64Wide) and carries
 * are detected with sign-flip compares, chained across four limbs.
 *
 * This is Backend::kAvx2. CPUID also picks it on AVX-512F hosts
 * without IFMA: AVX-512F implies AVX2, and without vpmadd52 the
 * carry-chain structure gains nothing from 512-bit lanes.
 *
 * The drivers run whole blocks only (WideKernels.h); FieldBackend.cpp
 * finishes each tail and adds sum's and dot's lane partials with Fp.
 * Results are bit-identical to Fp's operators: same algorithm, same
 * conditional subtracts, full canonicalization per element.
 */

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "ff/WideKernels.h"

namespace bzk::ff::detail {
namespace {

using V = __m256i;
static_assert(kAvx2Lanes * sizeof(uint64_t) == sizeof(V),
              "one element per 64-bit lane");

// Broadcast constants come from per-call setup, not file-scope
// globals (a global __m256i initializer would execute AVX2
// instructions during static init on pre-AVX2 hosts).

struct ConstsV
{
    V p[4];   // modulus limbs
    V inv;    // -p^{-1} mod 2^64
    V sign;   // 0x8000...0000 for unsigned compares
    V low32;  // 0x00000000ffffffff
    V zero;
};

inline ConstsV
makeConstsV(const WideFieldConstants &c)
{
    ConstsV k;
    for (int j = 0; j < 4; ++j)
        k.p[j] = _mm256_set1_epi64x(
            static_cast<long long>(c.modulus[j]));
    k.inv = _mm256_set1_epi64x(static_cast<long long>(c.inv));
    k.sign = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    k.low32 = _mm256_set1_epi64x(0xffffffffLL);
    k.zero = _mm256_setzero_si256();
    return k;
}

/** Lane-wise a < b as all-ones masks, unsigned (sign-flip compare). */
inline V
cmpltU64(const ConstsV &k, V a, V b)
{
    return _mm256_cmpgt_epi64(_mm256_xor_si256(b, k.sign),
                              _mm256_xor_si256(a, k.sign));
}

/** Mask (all-ones/all-zeros) -> 0/1 per lane. */
inline V
maskToBit(V m)
{
    return _mm256_srli_epi64(m, 63);
}

/** AoS block of 4 elements (16 limbs) -> limb-major L[0..3]. */
inline void
loadSoA(const uint64_t *p, V L[4])
{
    V r0 = _mm256_loadu_si256(reinterpret_cast<const V *>(p));
    V r1 = _mm256_loadu_si256(reinterpret_cast<const V *>(p + 4));
    V r2 = _mm256_loadu_si256(reinterpret_cast<const V *>(p + 8));
    V r3 = _mm256_loadu_si256(reinterpret_cast<const V *>(p + 12));
    V t0 = _mm256_unpacklo_epi64(r0, r1); // e0l0 e1l0 e0l2 e1l2
    V t1 = _mm256_unpackhi_epi64(r0, r1); // e0l1 e1l1 e0l3 e1l3
    V t2 = _mm256_unpacklo_epi64(r2, r3);
    V t3 = _mm256_unpackhi_epi64(r2, r3);
    L[0] = _mm256_permute2x128_si256(t0, t2, 0x20);
    L[1] = _mm256_permute2x128_si256(t1, t3, 0x20);
    L[2] = _mm256_permute2x128_si256(t0, t2, 0x31);
    L[3] = _mm256_permute2x128_si256(t1, t3, 0x31);
}

/** Limb-major L[0..3] -> AoS block of 4 elements at @p p. */
inline void
storeAoS(uint64_t *p, const V L[4])
{
    // The unpack/permute network is its own inverse.
    V t0 = _mm256_unpacklo_epi64(L[0], L[1]); // e0l0 e0l1 e2l0 e2l1
    V t1 = _mm256_unpackhi_epi64(L[0], L[1]); // e1l0 e1l1 e3l0 e3l1
    V t2 = _mm256_unpacklo_epi64(L[2], L[3]);
    V t3 = _mm256_unpackhi_epi64(L[2], L[3]);
    _mm256_storeu_si256(reinterpret_cast<V *>(p),
                        _mm256_permute2x128_si256(t0, t2, 0x20));
    _mm256_storeu_si256(reinterpret_cast<V *>(p + 4),
                        _mm256_permute2x128_si256(t1, t3, 0x20));
    _mm256_storeu_si256(reinterpret_cast<V *>(p + 8),
                        _mm256_permute2x128_si256(t0, t2, 0x31));
    _mm256_storeu_si256(reinterpret_cast<V *>(p + 12),
                        _mm256_permute2x128_si256(t1, t3, 0x31));
}

/** Full 64x64 -> 128 product per lane, as (hi, lo) vectors. */
inline void
mul64Wide(const ConstsV &k, V a, V b, V &hi, V &lo)
{
    V a_hi = _mm256_srli_epi64(a, 32);
    V b_hi = _mm256_srli_epi64(b, 32);
    V ll = _mm256_mul_epu32(a, b);
    V lh = _mm256_mul_epu32(a, b_hi);
    V hl = _mm256_mul_epu32(a_hi, b);
    V hh = _mm256_mul_epu32(a_hi, b_hi);

    // cross = lh + hl + (ll >> 32); lh + (ll >> 32) cannot wrap
    // ((2^32-1)^2 + (2^32-1) < 2^64), the second add can.
    V t = _mm256_add_epi64(lh, _mm256_srli_epi64(ll, 32));
    V cross = _mm256_add_epi64(t, hl);
    V carry = maskToBit(cmpltU64(k, cross, t));

    lo = _mm256_or_si256(_mm256_slli_epi64(cross, 32),
                         _mm256_and_si256(ll, k.low32));
    hi = _mm256_add_epi64(
        hh, _mm256_add_epi64(_mm256_srli_epi64(cross, 32),
                             _mm256_slli_epi64(carry, 32)));
}

/** Low 64 bits of a * b per lane (three 32x32 partial products). */
inline V
mullo64(V a, V b)
{
    V a_hi = _mm256_srli_epi64(a, 32);
    V b_hi = _mm256_srli_epi64(b, 32);
    V ll = _mm256_mul_epu32(a, b);
    V lh = _mm256_mul_epu32(a, b_hi);
    V hl = _mm256_mul_epu32(a_hi, b);
    return _mm256_add_epi64(
        ll, _mm256_slli_epi64(_mm256_add_epi64(lh, hl), 32));
}

/**
 * 4-way CIOS Montgomery product: out = x * y * 2^-256 mod p,
 * canonical. Mirrors Fp<>::montMul step for step; the 128-bit scalar
 * accumulator becomes a (sum, carry) pair where carry absorbs the
 * mul64Wide high halves plus the chain's wrap bits (hi <= 2^64 -
 * 2^33 + 1, so adding two wrap bits cannot overflow).
 */
inline void
montMulV(const ConstsV &k, const V x[4], const V y[4], V out[4])
{
    V t[6] = {k.zero, k.zero, k.zero, k.zero, k.zero, k.zero};
    for (int i = 0; i < 4; ++i) {
        V carry = k.zero;
        for (int j = 0; j < 4; ++j) {
            V hi, lo;
            mul64Wide(k, x[j], y[i], hi, lo);
            V s1 = _mm256_add_epi64(t[j], lo);
            V c1 = maskToBit(cmpltU64(k, s1, lo));
            V s2 = _mm256_add_epi64(s1, carry);
            V c2 = maskToBit(cmpltU64(k, s2, carry));
            t[j] = s2;
            carry = _mm256_add_epi64(hi, _mm256_add_epi64(c1, c2));
        }
        V s = _mm256_add_epi64(t[4], carry);
        V c = maskToBit(cmpltU64(k, s, carry));
        t[4] = s;
        t[5] = _mm256_add_epi64(t[5], c);

        V m = mullo64(t[0], k.inv);
        V hi, lo;
        mul64Wide(k, m, k.p[0], hi, lo);
        V s1 = _mm256_add_epi64(t[0], lo); // low 64 bits become zero
        V c1 = maskToBit(cmpltU64(k, s1, lo));
        carry = _mm256_add_epi64(hi, c1);
        for (int j = 1; j < 4; ++j) {
            mul64Wide(k, m, k.p[j], hi, lo);
            s1 = _mm256_add_epi64(t[j], lo);
            c1 = maskToBit(cmpltU64(k, s1, lo));
            V s2 = _mm256_add_epi64(s1, carry);
            V c2 = maskToBit(cmpltU64(k, s2, carry));
            t[j - 1] = s2;
            carry = _mm256_add_epi64(hi, _mm256_add_epi64(c1, c2));
        }
        s = _mm256_add_epi64(t[4], carry);
        c = maskToBit(cmpltU64(k, s, carry));
        t[3] = s;
        t[4] = _mm256_add_epi64(t[5], c);
        t[5] = k.zero;
    }
    // Conditional subtract: needed when the overflow limb is set or
    // t >= p (borrow-chain compare).
    V d[4];
    V bw = k.zero;
    for (int j = 0; j < 4; ++j) {
        V d1 = _mm256_sub_epi64(t[j], k.p[j]);
        V b1 = cmpltU64(k, t[j], k.p[j]);
        V d2 = _mm256_sub_epi64(d1, bw);
        V b2 = cmpltU64(k, d1, bw);
        d[j] = d2;
        bw = maskToBit(_mm256_or_si256(b1, b2));
    }
    V ge = _mm256_cmpeq_epi64(bw, k.zero);
    V ovf = _mm256_cmpeq_epi64(t[4], k.zero); // all-ones when clean
    V need = _mm256_or_si256(ge, _mm256_xor_si256(
                                     ovf, _mm256_cmpeq_epi64(
                                              k.zero, k.zero)));
    for (int j = 0; j < 4; ++j)
        out[j] = _mm256_blendv_epi8(t[j], d[j], need);
}

/** (a + b) mod p on limb-major blocks, canonical in/out. */
inline void
addModSoA(const ConstsV &k, const V a[4], const V b[4], V out[4])
{
    // Canonical inputs sum below 2^256: no carry out of limb 3.
    V sum[4];
    V carry = k.zero;
    for (int j = 0; j < 4; ++j) {
        V s1 = _mm256_add_epi64(a[j], b[j]);
        V c1 = cmpltU64(k, s1, a[j]);
        V s2 = _mm256_add_epi64(s1, carry);
        V c2 = cmpltU64(k, s2, carry);
        sum[j] = s2;
        carry = maskToBit(_mm256_or_si256(c1, c2));
    }
    V d[4];
    V bw = k.zero;
    for (int j = 0; j < 4; ++j) {
        V d1 = _mm256_sub_epi64(sum[j], k.p[j]);
        V b1 = cmpltU64(k, sum[j], k.p[j]);
        V d2 = _mm256_sub_epi64(d1, bw);
        V b2 = cmpltU64(k, d1, bw);
        d[j] = d2;
        bw = maskToBit(_mm256_or_si256(b1, b2));
    }
    V ge = _mm256_cmpeq_epi64(bw, k.zero);
    for (int j = 0; j < 4; ++j)
        out[j] = _mm256_blendv_epi8(sum[j], d[j], ge);
}

/** (a - b) mod p on limb-major blocks, canonical in/out. */
inline void
subModSoA(const ConstsV &k, const V a[4], const V b[4], V out[4])
{
    V d[4];
    V bw = k.zero;
    for (int j = 0; j < 4; ++j) {
        V d1 = _mm256_sub_epi64(a[j], b[j]);
        V b1 = cmpltU64(k, a[j], b[j]);
        V d2 = _mm256_sub_epi64(d1, bw);
        V b2 = cmpltU64(k, d1, bw);
        d[j] = d2;
        bw = maskToBit(_mm256_or_si256(b1, b2));
    }
    V neg = _mm256_cmpeq_epi64(bw, k.zero); // all-ones when no borrow
    V carry = k.zero;
    for (int j = 0; j < 4; ++j) {
        // Add p only in borrowed lanes.
        V addend = _mm256_andnot_si256(neg, k.p[j]);
        V s1 = _mm256_add_epi64(d[j], addend);
        V c1 = cmpltU64(k, s1, d[j]);
        V s2 = _mm256_add_epi64(s1, carry);
        V c2 = cmpltU64(k, s2, carry);
        out[j] = s2;
        carry = maskToBit(_mm256_or_si256(c1, c2));
    }
}

/** Broadcast one element's limbs to a limb-major block. */
inline void
broadcastSoA(const uint64_t *one, V L[4])
{
    for (int j = 0; j < 4; ++j)
        L[j] = _mm256_set1_epi64x(static_cast<long long>(one[j]));
}

void
avx2Add(const WideFieldConstants &c, const uint64_t *a,
        const uint64_t *b, uint64_t *out, size_t n)
{
    ConstsV k = makeConstsV(c);
    for (size_t i = 0; i < n; i += kAvx2Lanes) {
        V av[4], bv[4], ov[4];
        loadSoA(a + 4 * i, av);
        loadSoA(b + 4 * i, bv);
        addModSoA(k, av, bv, ov);
        storeAoS(out + 4 * i, ov);
    }
}

void
avx2Sub(const WideFieldConstants &c, const uint64_t *a,
        const uint64_t *b, uint64_t *out, size_t n)
{
    ConstsV k = makeConstsV(c);
    for (size_t i = 0; i < n; i += kAvx2Lanes) {
        V av[4], bv[4], ov[4];
        loadSoA(a + 4 * i, av);
        loadSoA(b + 4 * i, bv);
        subModSoA(k, av, bv, ov);
        storeAoS(out + 4 * i, ov);
    }
}

void
avx2Mul(const WideFieldConstants &c, const uint64_t *a,
        const uint64_t *b, uint64_t *out, size_t n)
{
    ConstsV k = makeConstsV(c);
    for (size_t i = 0; i < n; i += kAvx2Lanes) {
        V av[4], bv[4], ov[4];
        loadSoA(a + 4 * i, av);
        loadSoA(b + 4 * i, bv);
        montMulV(k, av, bv, ov);
        storeAoS(out + 4 * i, ov);
    }
}

void
avx2Fold(const WideFieldConstants &c, uint64_t *lo, const uint64_t *hi,
         const uint64_t *r, size_t n)
{
    ConstsV k = makeConstsV(c);
    V rv[4];
    broadcastSoA(r, rv);
    for (size_t i = 0; i < n; i += kAvx2Lanes) {
        V lov[4], hiv[4], dv[4], pv[4];
        loadSoA(lo + 4 * i, lov);
        loadSoA(hi + 4 * i, hiv);
        subModSoA(k, hiv, lov, dv);
        montMulV(k, rv, dv, pv);
        addModSoA(k, lov, pv, lov);
        storeAoS(lo + 4 * i, lov);
    }
}

void
avx2Axpy(const WideFieldConstants &c, uint64_t *acc, const uint64_t *x,
         const uint64_t *s, size_t n)
{
    ConstsV k = makeConstsV(c);
    V sv[4];
    broadcastSoA(s, sv);
    for (size_t i = 0; i < n; i += kAvx2Lanes) {
        V av[4], xv[4], pv[4];
        loadSoA(acc + 4 * i, av);
        loadSoA(x + 4 * i, xv);
        montMulV(k, sv, xv, pv);
        addModSoA(k, av, pv, av);
        storeAoS(acc + 4 * i, av);
    }
}

void
avx2Sum(const WideFieldConstants &c, const uint64_t *a, size_t n,
        uint64_t *out_lanes)
{
    ConstsV k = makeConstsV(c);
    V acc[4] = {k.zero, k.zero, k.zero, k.zero};
    for (size_t i = 0; i < n; i += kAvx2Lanes) {
        V av[4];
        loadSoA(a + 4 * i, av);
        addModSoA(k, acc, av, acc);
    }
    storeAoS(out_lanes, acc);
}

void
avx2Dot(const WideFieldConstants &c, const uint64_t *a,
        const uint64_t *b, size_t n, uint64_t *out_lanes)
{
    ConstsV k = makeConstsV(c);
    V acc[4] = {k.zero, k.zero, k.zero, k.zero};
    for (size_t i = 0; i < n; i += kAvx2Lanes) {
        V av[4], bv[4], pv[4];
        loadSoA(a + 4 * i, av);
        loadSoA(b + 4 * i, bv);
        montMulV(k, av, bv, pv);
        addModSoA(k, acc, pv, acc);
    }
    storeAoS(out_lanes, acc);
}

} // namespace

const WideKernelTable &
wideAvx2Kernels()
{
    static const WideKernelTable table{avx2Add,  avx2Sub,  avx2Mul,
                                       avx2Fold, avx2Axpy, avx2Sum,
                                       avx2Dot};
    return table;
}

} // namespace bzk::ff::detail

#endif // __x86_64__
