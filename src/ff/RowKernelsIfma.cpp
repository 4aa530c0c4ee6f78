/**
 * @file
 * The Spielman encoder's 8-row AVX-512 IFMA kernels (WideKernels.h):
 * 8 rows of a table run through the same sparse row sums at once, one
 * row per 64-bit lane. Built like WideKernelsIfma.cpp, with
 * -mavx512f -mavx512ifma in its own translation unit, and only reached
 * after the kIfma dispatch check in FieldBackend.cpp.
 *
 * Layout: a batch position holds five __m512i, radix-2^52 limb j of
 * the 8 rows in register j. Every stored value is canonical (< p), so
 * the limbs are below 2^52 and the top limb below 2^46.
 *
 * Load: REDC fused into the transpose. The 8 rows' elements at one
 * position are loaded with the 2^4 pre-shift (load52<4>, one row per
 * lane) and reduced by Ifma52.h's montReduce, which divides by 2^260:
 * x * 2^4 * 2^-260 = x * 2^-256 mod p, the canonical value.
 *
 * A term: one broadcast of the 32-bit coefficient c, then for each
 * limb x_j, vpmadd52luq adds the low 52 bits of x_j * c to slot j and
 * vpmadd52huq its high part (below 2^32) to slot j + 1. Low and high
 * parts go to separate accumulators so no slot waits on two multiplies
 * per term. A row has at most 255 terms, so a low slot stays below
 * 255 * 2^52 and a high slot below 255 * 2^32: together below 2^61.
 *
 * Reduction, once per output: after the carries, V = sum c_i * x_i is
 * below 255 * 2^32 * p < 2^294 in five 52-bit limbs plus a sixth. With
 * top = V >> 250 (below 2^44) and mu = floor(2^302 / p),
 * q = (top * mu) >> 52 satisfies q <= V / p and
 * V / p - q < 1 + 2^250 / p + top / 2^52 < 1 + 1/8 + 1/256 for
 * p >= 2^253, so V - q * p lies in [0, 2p) and one conditional
 * subtraction of p leaves the canonical residue. The residue of an
 * integer sum is unique, so the lanes store bit for bit what
 * SmallDot::residue() computes. This is not a Montgomery reduction: V
 * is an integer sum, not a product carrying a factor 2^-260.
 *
 * Store: each position goes back to four radix-2^64 limbs per row
 * (store52, one row per lane).
 */

#if defined(__x86_64__) || defined(_M_X64)

#include "ff/Ifma52.h"

namespace bzk::ff::detail {
namespace {

/** Limbs per batch position. */
constexpr size_t kPosLimbs = kRowLimbs * kIfmaLanes;

/**
 * The canonical residue of V = sum s[j] * 2^(52 j), V < 2^294, slots
 * below 2^62 (file comment: one quotient estimate, one conditional
 * subtraction).
 */
[[gnu::always_inline]] inline void
reduceSum(const ConstsV &k, V mu, V s[6], V t[5])
{
    carry52<6>(k, s);
    V top = _mm512_or_si512(shiftRight<42>(s[4]), shiftLeft<10>(s[5]));
    V q = _mm512_madd52hi_epu64(k.zero, top, mu);
    // t = V - q * p in signed 64-bit limbs; it is below 2^260, so limb
    // 5 and the carry out of limb 4 cancel and are dropped.
#pragma GCC unroll 16
    for (int j = 0; j < 5; ++j)
        t[j] = _mm512_sub_epi64(s[j],
                                _mm512_madd52lo_epu64(k.zero, q, k.p52[j]));
#pragma GCC unroll 16
    for (int j = 1; j < 5; ++j)
        t[j] = _mm512_sub_epi64(
            t[j], _mm512_madd52hi_epu64(k.zero, q, k.p52[j - 1]));
#pragma GCC unroll 16
    for (int j = 0; j < 4; ++j) {
        t[j + 1] = _mm512_add_epi64(t[j + 1], shiftRightSigned<52>(t[j]));
        t[j] = _mm512_and_si512(t[j], k.mask52);
    }
    t[4] = _mm512_and_si512(t[4], k.mask52);
    // t < 2p: one conditional subtraction.
    subPIfAbove(k, t);
}

/**
 * N consecutive positions from @p at (positions 4 limbs apart, rows
 * row_stride apart) into the batch at @p batch, canonical.
 */
template <int N>
[[gnu::always_inline]] inline void
loadPositions(const ConstsV &k, const uint64_t *at, size_t row_stride,
              uint64_t *batch)
{
    V s[N][kSlots], t[N][5];
#pragma GCC unroll 16
    for (int v = 0; v < N; ++v) {
        load52<4>(k, at + 4 * v, row_stride, s[v]);
#pragma GCC unroll 16
        for (int j = 5; j < kSlots; ++j)
            s[v][j] = k.zero;
    }
    montReduce<N>(k, s, t);
#pragma GCC unroll 16
    for (int v = 0; v < N; ++v)
#pragma GCC unroll 16
        for (int j = 0; j < 5; ++j)
            _mm512_storeu_si512(batch + kPosLimbs * v + kIfmaLanes * j,
                                t[v][j]);
}

} // namespace

void
ifmaLoadRows(const WideFieldConstants &c, const uint64_t *rows,
             size_t row_stride, size_t n, uint64_t *batch)
{
    ConstsV k = makeConstsV(c);
    size_t i = 0;
    for (; i + 2 <= n; i += 2)
        loadPositions<2>(k, rows + 4 * i, row_stride, batch + kPosLimbs * i);
    if (i < n)
        loadPositions<1>(k, rows + 4 * i, row_stride, batch + kPosLimbs * i);
}

void
ifmaMulRows(const WideFieldConstants &c, const size_t *offsets,
            const uint32_t *terms, size_t n_rows, const uint64_t *in,
            uint64_t *out)
{
    ConstsV k = makeConstsV(c);
    const V mu = _mm512_set1_epi64(static_cast<long long>(c.mu52));
    for (size_t r = 0; r < n_rows; ++r) {
        V lo[5] = {k.zero, k.zero, k.zero, k.zero, k.zero};
        V hi[5] = {k.zero, k.zero, k.zero, k.zero, k.zero};
        for (size_t e = offsets[r]; e < offsets[r + 1]; ++e) {
            const uint64_t *x = in + kPosLimbs * terms[2 * e];
            const V coeff = _mm512_set1_epi64(terms[2 * e + 1]);
#pragma GCC unroll 16
            for (int j = 0; j < 5; ++j) {
                V xj = _mm512_loadu_si512(x + kIfmaLanes * j);
                lo[j] = _mm512_madd52lo_epu64(lo[j], xj, coeff);
                hi[j] = _mm512_madd52hi_epu64(hi[j], xj, coeff);
            }
        }
        // hi[j] belongs one limb up.
        V s[6] = {lo[0],
                  _mm512_add_epi64(lo[1], hi[0]),
                  _mm512_add_epi64(lo[2], hi[1]),
                  _mm512_add_epi64(lo[3], hi[2]),
                  _mm512_add_epi64(lo[4], hi[3]),
                  hi[4]};
        V t[5];
        reduceSum(k, mu, s, t);
#pragma GCC unroll 16
        for (int j = 0; j < 5; ++j)
            _mm512_storeu_si512(out + kPosLimbs * r + kIfmaLanes * j, t[j]);
    }
}

void
ifmaStoreRows(const uint64_t *batch, size_t n, uint64_t *rows,
              size_t row_stride)
{
    for (size_t i = 0; i < n; ++i) {
        V t[5];
#pragma GCC unroll 16
        for (int j = 0; j < 5; ++j)
            t[j] = _mm512_loadu_si512(batch + kPosLimbs * i + kIfmaLanes * j);
        store52(t, rows + 4 * i, row_stride);
    }
}

} // namespace bzk::ff::detail

#endif // __x86_64__
