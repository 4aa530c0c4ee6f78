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
 */

#if defined(__x86_64__) || defined(_M_X64)

#include "ff/Ifma52.h"

namespace bzk::ff::detail {

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
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V x[5], y[5];
        load52<4>(k, a + 4 * i, x);
        load52<0>(k, b + 4 * i, y);
        mulMod52(k, x, y, x);
        store52(x, out + 4 * i);
    }
}

void
ifmaFold(const WideFieldConstants &c, uint64_t *lo, const uint64_t *hi,
         const uint64_t *r, size_t n)
{
    ConstsV k = makeConstsV(c);
    V rv[5];
    broadcast52<4>(k, r, rv);
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V x[5], d[5];
        load52<0>(k, lo + 4 * i, x);
        load52<0>(k, hi + 4 * i, d);
        subMod52(k, d, x, d);
        mulMod52(k, rv, d, d);
        addMod52(k, x, d, x);
        store52(x, lo + 4 * i);
    }
}

void
ifmaAxpy(const WideFieldConstants &c, uint64_t *acc, const uint64_t *x,
         const uint64_t *s, size_t n)
{
    ConstsV k = makeConstsV(c);
    V sv[5];
    broadcast52<4>(k, s, sv);
    for (size_t i = 0; i < n; i += kIfmaLanes) {
        V av[5], xv[5];
        load52<0>(k, acc + 4 * i, av);
        load52<0>(k, x + 4 * i, xv);
        mulMod52(k, sv, xv, xv);
        addMod52(k, av, xv, av);
        store52(av, acc + 4 * i);
    }
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

} // namespace bzk::ff::detail

#endif // __x86_64__
