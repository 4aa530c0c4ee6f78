/**
 * @file
 * Portable wide-field kernel table (Backend::kScalar): the scalar
 * references applied element by element. Always available; CPUID
 * picks it on hosts without AVX2, BZK_FIELD_BACKEND=scalar forces it
 * for the determinism leg, and the SIMD tables reuse the references
 * for trailing elements.
 */

#include "ff/WideKernels.h"

namespace bzk::ff::detail {
namespace {

void
scalarWideAdd(const WideFieldConstants &c, const uint64_t *a,
              const uint64_t *b, uint64_t *out, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        wideAddRef(c, a + 4 * i, b + 4 * i, out + 4 * i);
}

void
scalarWideSub(const WideFieldConstants &c, const uint64_t *a,
              const uint64_t *b, uint64_t *out, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        wideSubRef(c, a + 4 * i, b + 4 * i, out + 4 * i);
}

void
scalarWideMul(const WideFieldConstants &c, const uint64_t *a,
              const uint64_t *b, uint64_t *out, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        wideMulRef(c, a + 4 * i, b + 4 * i, out + 4 * i);
}

void
scalarWideFold(const WideFieldConstants &c, uint64_t *lo,
               const uint64_t *hi, const uint64_t *r, size_t n)
{
    uint64_t d[4], t[4];
    for (size_t i = 0; i < n; ++i) {
        wideSubRef(c, hi + 4 * i, lo + 4 * i, d);
        wideMulRef(c, r, d, t);
        wideAddRef(c, lo + 4 * i, t, lo + 4 * i);
    }
}

void
scalarWideAxpy(const WideFieldConstants &c, uint64_t *acc,
               const uint64_t *x, const uint64_t *s, size_t n)
{
    uint64_t t[4];
    for (size_t i = 0; i < n; ++i) {
        wideMulRef(c, s, x + 4 * i, t);
        wideAddRef(c, acc + 4 * i, t, acc + 4 * i);
    }
}

void
scalarWideSum(const WideFieldConstants &c, const uint64_t *a, size_t n,
              uint64_t *out_one)
{
    uint64_t acc[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < n; ++i)
        wideAddRef(c, acc, a + 4 * i, acc);
    for (int j = 0; j < 4; ++j)
        out_one[j] = acc[j];
}

void
scalarWideDot(const WideFieldConstants &c, const uint64_t *a,
              const uint64_t *b, size_t n, uint64_t *out_one)
{
    uint64_t acc[4] = {0, 0, 0, 0};
    uint64_t t[4];
    for (size_t i = 0; i < n; ++i) {
        wideMulRef(c, a + 4 * i, b + 4 * i, t);
        wideAddRef(c, acc, t, acc);
    }
    for (int j = 0; j < 4; ++j)
        out_one[j] = acc[j];
}

} // namespace

const WideKernelTable &
wideScalarKernels()
{
    static const WideKernelTable table{
        scalarWideAdd, scalarWideSub, scalarWideMul, scalarWideFold,
        scalarWideAxpy, scalarWideSum, scalarWideDot};
    return table;
}

} // namespace bzk::ff::detail
