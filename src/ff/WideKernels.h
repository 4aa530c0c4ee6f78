#ifndef BZK_FF_WIDEKERNELS_H_
#define BZK_FF_WIDEKERNELS_H_

/**
 * @file
 * Internal contract between the FieldBackend dispatcher and the
 * AVX-512 IFMA kernels: packed Montgomery arithmetic for 4x64-limb
 * prime fields (BN254 Fr and Fq) in WideKernelsIfma.cpp, the
 * Spielman encoder's 8-row kernels in RowKernelsIfma.cpp, and the gate
 * sum-check's round sums in GateKernelsIfma.cpp.
 *
 * The lane kernels operate on contiguous arrays of Montgomery-form
 * elements in the same memory layout as Fp<> (four little-endian
 * 64-bit limbs per element, canonical `< p`). FieldBackend.cpp is the
 * only caller outside test_ff_kat: it handles the Fp <-> limb view,
 * hands the kernels whole blocks only, and runs each call's remaining
 * elements (and every call under Backend::kScalar) with Fp's own
 * operators. Field constants travel by reference in a
 * WideFieldConstants so one set of kernels serves every 4x64 field.
 *
 * Every lane kernel must store bit-for-bit what Fp's operators
 * compute, every row kernel what Fp::SmallDot::residue() computes,
 * and the gate kernel, once scaled, what Fp's sums compute.
 * That holds even though the radix-52 IFMA arithmetic differs from
 * Fp's radix-64 code because each result is fully canonicalized: the
 * Montgomery product a*b*2^-256 mod p, or the residue of an integer
 * sum, is a unique value < p, so any correct algorithm stores
 * identical limbs. Where a result folds lanes into one value (sum,
 * dot), or reduces a sum of products once (the row combination, the
 * gate sums), the order is invisible because field addition is
 * exactly associative. test_ff_kat holds the kernels to this and the
 * proof goldens depend on it.
 *
 * The three kernel TUs share one radix-52 layer, Ifma52.h: load and
 * store, modular add and sub, products and the one Montgomery
 * reduction, whose header gives the bound each kernel relies on.
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
    /**
     * floor(2^302 / p), below 2^50 for 2^253 <= p < 2^255: the row
     * kernels' quotient estimate.
     */
    uint64_t mu52;
};

/** floor(2^302 / p) for 2^253 <= p < 2^255, by binary long division. */
constexpr uint64_t
quotientMu52(const uint64_t p[4])
{
    // Invariant: 2^(253 + i) = q * p + r with r < p; r < 2^255 keeps
    // 2r in four limbs.
    uint64_t r[4] = {0, 0, 0, uint64_t{1} << 61};
    uint64_t q = 0;
    for (int i = 0; i < 302 - 253; ++i) {
        for (int j = 3; j > 0; --j)
            r[j] = (r[j] << 1) | (r[j - 1] >> 63);
        r[0] <<= 1;
        bool ge = true;
        for (int j = 3; j >= 0; --j) {
            if (r[j] != p[j]) {
                ge = r[j] > p[j];
                break;
            }
        }
        q <<= 1;
        if (ge) {
            uint64_t borrow = 0;
            for (int j = 0; j < 4; ++j) {
                uint64_t d = r[j] - p[j] - borrow;
                borrow = (r[j] < p[j] || (r[j] == p[j] && borrow)) ? 1 : 0;
                r[j] = d;
            }
            q |= 1;
        }
    }
    return q;
}

/** A value below 2^260 in four 64-bit limbs re-sliced into five of 52. */
constexpr void
toRadix52(const uint64_t x[4], uint64_t out[5])
{
    out[0] = x[0] & kMask52;
    out[1] = ((x[0] >> 52) | (x[1] << 12)) & kMask52;
    out[2] = ((x[1] >> 40) | (x[2] << 24)) & kMask52;
    out[3] = ((x[2] >> 28) | (x[3] << 36)) & kMask52;
    out[4] = x[3] >> 16;
}

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
    toRadix52(c.modulus, c.modulus52);
    c.mu52 = quotientMu52(c.modulus);
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
// @p out may be @p a, @p b or both, and fold's @p out may be @p lo:
// mul, fold and axpy run four blocks at a time, and each kernel reads
// the blocks it stores before it stores any of them. Any other
// overlap is undefined.

void ifmaAdd(const WideFieldConstants &c, const uint64_t *a, const uint64_t *b,
             uint64_t *out, size_t n);
void ifmaSub(const WideFieldConstants &c, const uint64_t *a, const uint64_t *b,
             uint64_t *out, size_t n);
void ifmaMul(const WideFieldConstants &c, const uint64_t *a, const uint64_t *b,
             uint64_t *out, size_t n);
/** out[i] = lo[i] + r * (hi[i] - lo[i]). */
void ifmaFold(const WideFieldConstants &c, uint64_t *out, const uint64_t *lo,
              const uint64_t *hi, const uint64_t *r, size_t n);
/** acc[i] += s * x[i]. */
void ifmaAxpy(const WideFieldConstants &c, uint64_t *acc, const uint64_t *x,
              const uint64_t *s, size_t n);
/** out_lanes[l] = sum of a[i] over the i in lane l (i % 8 == l). */
void ifmaSum(const WideFieldConstants &c, const uint64_t *a, size_t n,
             uint64_t *out_lanes);
/** out_lanes[l] = sum of a[i] * b[i] over the i in lane l. */
void ifmaDot(const WideFieldConstants &c, const uint64_t *a, const uint64_t *b,
             size_t n, uint64_t *out_lanes);

/**
 * Most rows per reduction of ifmaCombineRows: at most 256 products per
 * lane, the gate kernel's bound. It needs p < 2^254.
 */
inline constexpr size_t kCombineRowsSpan = 256;

/**
 * out[j] = sum over row < n_rows of coeffs[row] * rows[row][j], for
 * j < n, where row r starts r * row_stride limbs after @p rows and
 * @p coeffs holds n_rows elements; n_rows >= 1. Each span of up to
 * kCombineRowsSpan rows is summed unreduced and reduced once per
 * column. @p out must overlap neither input.
 */
void ifmaCombineRows(const WideFieldConstants &c, const uint64_t *rows,
                     size_t row_stride, const uint64_t *coeffs,
                     size_t n_rows, uint64_t *out, size_t n);

// The 8-row encoder kernels (RowKernelsIfma.cpp, same flags and
// dispatch rule). They work on a batch: one codeword position of
// kIfmaLanes rows per kRowLimbs * kIfmaLanes limbs, radix-2^52 limb j
// of row l at batch[kRowLimbs * kIfmaLanes * i + kIfmaLanes * j + l],
// each row's value canonical (< p). Row l of a row-major array starts
// l * row_stride limbs after row 0. The moduli must satisfy
// 2^253 <= p < 2^255 (mu52's bound).

/** Radix-2^52 limbs per value in a batch. */
inline constexpr size_t kRowLimbs = 5;

/**
 * Batch position i (i < n) = the canonical values x * 2^-256 mod p of
 * the 8 Montgomery-form elements at rows + l * row_stride + 4 * i:
 * REDC fused into the transpose.
 */
void ifmaLoadRows(const WideFieldConstants &c, const uint64_t *rows,
                  size_t row_stride, size_t n, uint64_t *batch);

/**
 * Sparse row sums over a batch: out position r (r < n_rows) = the
 * canonical residue of the sum of coeff * (in position col) over row
 * r's terms. @p terms holds (col, coeff) pairs of 32-bit words; row
 * r's are pairs [offsets[r], offsets[r + 1]), at most 255 of them. in
 * and out must not overlap.
 */
void ifmaMulRows(const WideFieldConstants &c, const size_t *offsets,
                 const uint32_t *terms, size_t n_rows, const uint64_t *in,
                 uint64_t *out);

/**
 * The 8 rows' values at batch positions [0, n) as four radix-2^64
 * limbs each: position i of row l goes to rows + l * row_stride + 4 * i.
 */
void ifmaStoreRows(const uint64_t *batch, size_t n, uint64_t *rows,
                   size_t row_stride);

// The gate sum-check's chunk kernel (GateKernelsIfma.cpp, same flags
// and dispatch rule). It needs p < 2^254 (its reduction bound).

/** Most pairs per ifmaGateSums call: at most 256 products per lane. */
inline constexpr size_t kGateSumsSpan = 2048;

/**
 * log2 of the power of two each a^K * w * b sum of ifmaGateSums<K> is
 * short by: its products divide by 2^260 where Fp's divide by 2^256.
 */
constexpr unsigned
gateSumsShift(unsigned power)
{
    return power == 1 ? 8 : 20;
}

/** The same for its w * c sums. */
inline constexpr unsigned kGateSumsCShift = 4;

/**
 * The round sums of the gate a^K * b - c (K = 1 or 4) over pairs
 * i < n, n a whole number of blocks and at most kGateSumsSpan: pair i
 * is element i (lo) and element half + i (hi) of @p a, @p b and @p c,
 * and x_t = x_lo + t * (x_hi - x_lo). Writes K + 4 groups of
 * kIfmaLanes elements to @p out_lanes, each canonical in Montgomery
 * form, lane l of a group summing the i with i % 8 == l: group
 * t < K + 2 sums w[i] * a_t^K * b_t times 2^-gateSumsShift(K), group
 * K + 2 sums w[i] * c_lo and group K + 3 w[i] * c_hi, both times
 * 2^-kGateSumsCShift.
 */
template <unsigned K>
void ifmaGateSums(const WideFieldConstants &c, const uint64_t *a,
                  const uint64_t *b, const uint64_t *cc, size_t half,
                  const uint64_t *w, size_t n, uint64_t *out_lanes);

} // namespace bzk::ff::detail

#endif // BZK_FF_WIDEKERNELS_H_
