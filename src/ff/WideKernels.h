#ifndef BZK_FF_WIDEKERNELS_H_
#define BZK_FF_WIDEKERNELS_H_

/**
 * @file
 * Internal contract between the FieldBackend dispatcher and the
 * per-ISA *wide-field* kernel translation units: packed Montgomery
 * arithmetic for 4x64-limb prime fields (BN254 Fr and Fq).
 *
 * Kernels operate on contiguous arrays of Montgomery-form elements in
 * the same memory layout as Fp<> (four little-endian 64-bit limbs per
 * element, canonical `< p`). FieldBackend.cpp is the only caller: it
 * handles the Fp <-> limb view, hands a table whole blocks only, and
 * runs each call's remaining elements (and every call under
 * Backend::kScalar, which has no table) with Fp's own operators. Field
 * constants travel by reference in a WideFieldConstants so one kernel
 * table serves every 4x64 field.
 *
 * Every kernel must store bit-for-bit what Fp's operators compute.
 * That holds even across radically different mul algorithms (radix-52
 * IFMA vs. Fp's radix-64 CIOS) because each element result is fully
 * canonicalized: the Montgomery product a*b*2^-256 mod p is a unique
 * value < p, so any correct algorithm stores identical limbs. Where a
 * result folds lanes into one value (sum, dot) the lane-major order is
 * invisible because field addition is exactly associative. test_ff_kat
 * holds each table to this and the proof goldens depend on it.
 */

#include <cstddef>
#include <cstdint>

namespace bzk::ff::detail {

inline constexpr uint64_t kMask52 = (uint64_t{1} << 52) - 1;

/**
 * Runtime view of one 4x64-limb field's constants. Derived once per
 * field in FieldBackend.cpp from the Fp<> parameter pack; the radix-52
 * redundant form feeds the AVX-512 IFMA kernels.
 */
struct WideFieldConstants
{
    /** Little-endian modulus limbs, p < 2^255, p odd. */
    uint64_t modulus[4];
    /** -p^{-1} mod 2^64 (the CIOS folding constant). */
    uint64_t inv;
    /** p re-sliced into five 52-bit limbs (radix-52 kernels). */
    uint64_t modulus52[5];
    /** -p^{-1} mod 2^52 (== inv masked to 52 bits). */
    uint64_t inv52;
};

/** Build the constants (including the radix-52 form) from p. */
constexpr WideFieldConstants
makeWideConstants(uint64_t p0, uint64_t p1, uint64_t p2, uint64_t p3,
                  uint64_t inv)
{
    WideFieldConstants c{};
    c.modulus[0] = p0;
    c.modulus[1] = p1;
    c.modulus[2] = p2;
    c.modulus[3] = p3;
    c.inv = inv;
    c.inv52 = inv & kMask52;
    c.modulus52[0] = p0 & kMask52;
    c.modulus52[1] = ((p0 >> 52) | (p1 << 12)) & kMask52;
    c.modulus52[2] = ((p1 >> 40) | (p2 << 24)) & kMask52;
    c.modulus52[3] = ((p2 >> 28) | (p3 << 36)) & kMask52;
    c.modulus52[4] = p3 >> 16;
    return c;
}

/** Elements per block of the 4-way AVX2 and 8-way IFMA tables. */
inline constexpr size_t kAvx2Lanes = 4;
inline constexpr size_t kIfmaLanes = 8;

/**
 * One SIMD table's packed kernels over contiguous 4-limb Montgomery
 * elements. Every n is a whole number of the table's blocks
 * (kAvx2Lanes or kIfmaLanes); array pointers hold 4*n limbs, `r` and
 * `s` are a single element, and `out_lanes` receives one partial per
 * lane. Pointers need only natural (8-byte) alignment.
 */
struct WideKernelTable
{
    void (*add)(const WideFieldConstants &c, const uint64_t *a,
                const uint64_t *b, uint64_t *out, size_t n);
    /** @p out may be @p a itself; each block is read before written. */
    void (*sub)(const WideFieldConstants &c, const uint64_t *a,
                const uint64_t *b, uint64_t *out, size_t n);
    void (*mul)(const WideFieldConstants &c, const uint64_t *a,
                const uint64_t *b, uint64_t *out, size_t n);
    /** lo[i] = lo[i] + r * (hi[i] - lo[i]); ranges must not overlap. */
    void (*fold)(const WideFieldConstants &c, uint64_t *lo,
                 const uint64_t *hi, const uint64_t *r, size_t n);
    /** acc[i] += s * x[i]. */
    void (*axpy)(const WideFieldConstants &c, uint64_t *acc,
                 const uint64_t *x, const uint64_t *s, size_t n);
    /** out_lanes[l] = sum of a[i] over the i in lane l (i % lanes). */
    void (*sum)(const WideFieldConstants &c, const uint64_t *a,
                size_t n, uint64_t *out_lanes);
    /** out_lanes[l] = sum of a[i] * b[i] over the i in lane l. */
    void (*dot)(const WideFieldConstants &c, const uint64_t *a,
                const uint64_t *b, size_t n, uint64_t *out_lanes);
};

#if defined(__x86_64__) || defined(_M_X64)
/**
 * 4-way AVX2 table (WideKernelsAvx2.cpp, -mavx2): limb-transposed
 * radix-64 CIOS with 64x64 widening multiplies and the 128-bit
 * accumulator split across (lo, carry) lane vectors. Also serves as
 * the non-IFMA fallback on AVX-512F hosts — without vpmadd52 the
 * carry-chain code gains nothing from 512-bit lanes.
 */
const WideKernelTable &wideAvx2Kernels();
/**
 * 8-way AVX-512 IFMA table (WideKernelsIfma.cpp, -mavx512ifma): the
 * radix-52 vpmadd52 lane layout. Only reached after
 * __builtin_cpu_supports("avx512ifma").
 */
const WideKernelTable &wideIfmaKernels();
#endif

} // namespace bzk::ff::detail

#endif // BZK_FF_WIDEKERNELS_H_
