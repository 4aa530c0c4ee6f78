/**
 * @file
 * The gate sum-check's chunk kernel (WideKernels.h, ifmaGateSums): all
 * K + 2 round sums of the gate G = a^K * b - c over a chunk of table
 * pairs in one pass, 8 pairs per block, one per 64-bit lane, every
 * value in radix-2^52 registers. Built like WideKernelsIfma.cpp, with
 * -mavx512f -mavx512ifma in its own translation unit, and only reached
 * after the kIfma dispatch check in FieldBackend.cpp.
 *
 * For pair i, x_t = x_lo + t * (x_hi - x_lo) for each table x, and
 * the round needs sum_i w * (a_t^K * b_t - c_t) at t = 0 .. K + 1.
 *
 * Loads: the seven operands are loaded with no pre-shift (load52<0>),
 * so they are the Montgomery integers X = x * R, R = 2^256. A reduced
 * product of two of them (Ifma52.h's montReduce) divides by 2^260, not
 * R, so it is short by 2^4 against Fp's product; the stepping below is
 * linear, so it keeps that factor, and FieldBackend.cpp multiplies
 * each sum by the power of two it is short by (gateSumsShift).
 *
 * Reduced products: w * b_lo and w * b_hi are the only general
 * products; w * b_t steps from them by modular additions. For K = 4 a
 * dedicated squaring (15 partial products) gives a_lo^2, a_hi^2 and
 * (a_hi - a_lo)^2; a_t^2 is quadratic in t, so each later one follows
 * from its second difference 2 (a_hi - a_lo)^2, and a_t^4 is one more
 * squaring. For K = 1, a_t steps by addition.
 *
 * Unreduced products: the last product of every term, a_t^K * (w b_t),
 * and w * c_lo, w * c_hi, are not reduced. Their 25 partial products
 * accumulate in ten 64-bit slots per lane (Ifma52.h's mulAcc): 50
 * vpmadd52 instead of a reduced product's 105. One slot takes at most
 * 9 halves of one product, each below 2^52, and a lane takes at most
 * kGateSumsSpan / 8 = 256 products per call, so a slot stays below
 * 2304 * 2^52 < 2^64 with no carry until the call's one carry pass.
 *
 * Reduction, once per call: the lane's sum S of at most 256 products
 * of canonical values is below 256 p^2. After the carry pass,
 * redcSlots leaves a value below S / 2^260 + p (Ifma52.h), here below
 * 256 p^2 / 2^260 + p = p (1 + p / 2^252) < 5p for p < 2^254. So four
 * conditional subtractions of p leave the canonical residue. Each
 * residue is unique, so the lanes store bit for bit what Fp computes
 * for the same sums; FieldBackend.cpp adds the lanes.
 *
 * Counts per block of 8 pairs: 2 reduced products (210 vpmadd52),
 * 3 + (K + 2) squarings (85 each) and K + 4 unreduced products (50
 * each) for K = 4, 1,375 in all; 2 reduced and 5 unreduced products,
 * 460, for K = 1.
 *
 * Scheduling: a block's partial products go to slots first and their
 * Montgomery rounds run batched (montReduce<N>), so the N reductions'
 * dependency chains overlap. Every fixed-count loop carries an unroll
 * pragma, as in Ifma52.h: at -O2 GCC leaves these loops rolled, which
 * keeps the limbs on the stack and ran the kernel about 3x slower.
 */

#if defined(__x86_64__) || defined(_M_X64)

#include "ff/Ifma52.h"

namespace bzk::ff::detail {
namespace {

template <unsigned K>
void
gateSums(const ConstsV &k, const uint64_t *a, const uint64_t *b,
         const uint64_t *c, size_t half, const uint64_t *w, size_t n,
         uint64_t *out_lanes)
{
    static_assert(K == 1 || K == 4, "the kernel serves a^1 and a^4");
    constexpr int kPoints = K + 2;
    // acc[t] sums a_t^K * w b_t; acc[kPoints] and acc[kPoints + 1] sum
    // w c_lo and w c_hi.
    V acc[kPoints + 2][kSlots];
    for (auto &sum : acc)
        for (V &slot : sum)
            slot = k.zero;
    const size_t hi = 4 * half;
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V wv[5], lo[5], up[5];
        load52<0>(k, w + 4 * i, wv);
        load52<0>(k, c + 4 * i, lo);
        load52<0>(k, c + 4 * i + hi, up);
        mulAcc(acc[kPoints], wv, lo);
        mulAcc(acc[kPoints + 1], wv, up);

        // The reduced products, their reductions batched: w b_lo and
        // w b_hi, then for K = 4 a_lo^2, a_hi^2 and (a_hi - a_lo)^2.
        V s[kPoints][kSlots], r[kPoints][5];
        load52<0>(k, b + 4 * i, lo);
        load52<0>(k, b + 4 * i + hi, up);
        mulSlots(k, wv, lo, s[0]);
        mulSlots(k, wv, up, s[1]);
        load52<0>(k, a + 4 * i, lo);
        load52<0>(k, a + 4 * i + hi, up);
        V d[5];
        subMod52(k, up, lo, d);
        if constexpr (K == 1) {
            montReduce<2>(k, s, r);
        } else {
            sqrSlots(k, lo, s[2]);
            sqrSlots(k, up, s[3]);
            sqrSlots(k, d, s[4]);
            montReduce<5>(k, s, r);
        }
        // w b_t and a_t (K = 1) or a_t^2 (K = 4) at every t: t = 0 and
        // 1 directly, each later t by additions.
        V wb[kPoints][5], x[kPoints][5], dwb[5], step[5], dd[5];
#pragma GCC unroll 16
        for (int j = 0; j < 5; ++j) {
            wb[0][j] = r[0][j];
            wb[1][j] = r[1][j];
        }
        subMod52(k, wb[1], wb[0], dwb);
        if constexpr (K == 1) {
#pragma GCC unroll 16
            for (int j = 0; j < 5; ++j) {
                x[0][j] = lo[j];
                x[1][j] = up[j];
                step[j] = d[j];
            }
        } else {
            // a_t^2 - a_{t-1}^2 grows by 2 (a_hi - a_lo)^2 per t.
#pragma GCC unroll 16
            for (int j = 0; j < 5; ++j) {
                x[0][j] = r[2][j];
                x[1][j] = r[3][j];
            }
            subMod52(k, x[1], x[0], step);
            addMod52(k, r[4], r[4], dd);
        }
#pragma GCC unroll 16
        for (int t = 2; t < kPoints; ++t) {
            addMod52(k, wb[t - 1], dwb, wb[t]);
            if constexpr (K == 4)
                addMod52(k, step, dd, step);
            addMod52(k, x[t - 1], step, x[t]);
        }
        if constexpr (K == 4) {
#pragma GCC unroll 16
            for (int t = 0; t < kPoints; ++t)
                sqrSlots(k, x[t], s[t]);
            montReduce<kPoints>(k, s, x);
        }
#pragma GCC unroll 16
        for (int t = 0; t < kPoints; ++t)
            mulAcc(acc[t], x[t], wb[t]);
    }
    for (int g = 0; g < kPoints + 2; ++g) {
        V t[1][5];
        carry52<kSlots>(k, acc[g]);
        redcSlots<1>(k, &acc[g], t);
        for (int sub = 0; sub < 4; ++sub)
            subPIfAbove(k, t[0]);
        store52(t[0], out_lanes + 4 * kIfmaLanes * g);
    }
}

} // namespace

template <unsigned K>
void
ifmaGateSums(const WideFieldConstants &c, const uint64_t *a,
             const uint64_t *b, const uint64_t *cc, size_t half,
             const uint64_t *w, size_t n, uint64_t *out_lanes)
{
    gateSums<K>(makeConstsV(c), a, b, cc, half, w, n, out_lanes);
}

template void ifmaGateSums<1>(const WideFieldConstants &, const uint64_t *,
                              const uint64_t *, const uint64_t *, size_t,
                              const uint64_t *, size_t, uint64_t *);
template void ifmaGateSums<4>(const WideFieldConstants &, const uint64_t *,
                              const uint64_t *, const uint64_t *, size_t,
                              const uint64_t *, size_t, uint64_t *);

} // namespace bzk::ff::detail

#endif // __x86_64__
