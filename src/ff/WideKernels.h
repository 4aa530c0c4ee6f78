#ifndef BZK_FF_WIDEKERNELS_H_
#define BZK_FF_WIDEKERNELS_H_

/**
 * @file
 * Internal contract between the FieldBackend dispatcher and the
 * AVX-512 IFMA kernels (WideKernelsIfma.cpp): packed Montgomery
 * arithmetic for 4x64-limb prime fields (BN254 Fr and Fq).
 *
 * Kernels operate on contiguous arrays of Montgomery-form elements in
 * the same memory layout as Fp<> (four little-endian 64-bit limbs per
 * element, canonical `< p`). FieldBackend.cpp is the only caller: it
 * handles the Fp <-> limb view, hands the kernels whole blocks only,
 * and runs each call's remaining elements (and every call under
 * Backend::kScalar) with Fp's own operators. Field constants travel by
 * reference in a WideFieldConstants so one set of kernels serves every
 * 4x64 field.
 *
 * Every kernel must store bit-for-bit what Fp's operators compute.
 * That holds even though the radix-52 IFMA product differs from Fp's
 * radix-64 CIOS because each element result is fully canonicalized:
 * the Montgomery product a*b*2^-256 mod p is a unique value < p, so
 * any correct algorithm stores identical limbs. Where a result folds
 * lanes into one value (sum, dot) the lane-major order is invisible
 * because field addition is exactly associative. test_ff_kat holds the
 * kernels to this and the proof goldens depend on it.
 */

#include <cstddef>
#include <cstdint>

namespace bzk::ff::detail {

inline constexpr uint64_t kMask52 = (uint64_t{1} << 52) - 1;

/**
 * Runtime view of one 4x64-limb field's constants. Derived once per
 * field in FieldBackend.cpp from the Fp<> parameter pack.
 */
struct WideFieldConstants
{
    /** Little-endian modulus limbs, p < 2^255, p odd. */
    uint64_t modulus[4];
    /** p re-sliced into five 52-bit limbs (radix-52 products). */
    uint64_t modulus52[5];
    /** -p^{-1} mod 2^52. */
    uint64_t inv52;
};

/** Build the constants from p and inv = -p^{-1} mod 2^64. */
constexpr WideFieldConstants
makeWideConstants(uint64_t p0, uint64_t p1, uint64_t p2, uint64_t p3,
                  uint64_t inv)
{
    WideFieldConstants c{};
    c.modulus[0] = p0;
    c.modulus[1] = p1;
    c.modulus[2] = p2;
    c.modulus[3] = p3;
    c.inv52 = inv & kMask52;
    c.modulus52[0] = p0 & kMask52;
    c.modulus52[1] = ((p0 >> 52) | (p1 << 12)) & kMask52;
    c.modulus52[2] = ((p1 >> 40) | (p2 << 24)) & kMask52;
    c.modulus52[3] = ((p2 >> 28) | (p3 << 36)) & kMask52;
    c.modulus52[4] = p3 >> 16;
    return c;
}

/** Elements per IFMA block, one per 64-bit lane of a 512-bit register. */
inline constexpr size_t kIfmaLanes = 8;

// The 8-way AVX-512 IFMA kernels (WideKernelsIfma.cpp, built with
// -mavx512f -mavx512ifma on x86-64 only, and only called after
// backendAvailable(Backend::kIfma)). Every n is a whole number of
// kIfmaLanes blocks; array pointers hold 4*n limbs, `r` and `s` are a
// single element, and `out_lanes` receives one partial per lane.
// Pointers need only natural (8-byte) alignment. In add, sub and mul,
// @p out may be @p a, @p b or both: each block is read before written.

void ifmaAdd(const WideFieldConstants &c, const uint64_t *a, const uint64_t *b,
             uint64_t *out, size_t n);
void ifmaSub(const WideFieldConstants &c, const uint64_t *a, const uint64_t *b,
             uint64_t *out, size_t n);
void ifmaMul(const WideFieldConstants &c, const uint64_t *a, const uint64_t *b,
             uint64_t *out, size_t n);
/** lo[i] = lo[i] + r * (hi[i] - lo[i]); ranges must not overlap. */
void ifmaFold(const WideFieldConstants &c, uint64_t *lo, const uint64_t *hi,
              const uint64_t *r, size_t n);
/** acc[i] += s * x[i]. */
void ifmaAxpy(const WideFieldConstants &c, uint64_t *acc, const uint64_t *x,
              const uint64_t *s, size_t n);
/** out_lanes[l] = sum of a[i] over the i in lane l (i % 8 == l). */
void ifmaSum(const WideFieldConstants &c, const uint64_t *a, size_t n,
             uint64_t *out_lanes);
/** out_lanes[l] = sum of a[i] * b[i] over the i in lane l. */
void ifmaDot(const WideFieldConstants &c, const uint64_t *a, const uint64_t *b,
             size_t n, uint64_t *out_lanes);

} // namespace bzk::ff::detail

#endif // BZK_FF_WIDEKERNELS_H_
