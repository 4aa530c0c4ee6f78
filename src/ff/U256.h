#ifndef BZK_FF_U256_H_
#define BZK_FF_U256_H_

/**
 * @file
 * Fixed-width 256-bit unsigned integer with constexpr arithmetic.
 *
 * Kept deliberately minimal: just what Montgomery field arithmetic and
 * constant derivation need. Limbs are little-endian 64-bit words. The
 * limb loops of the helpers every field operation runs (cmp, addCarry,
 * subBorrow) carry `#pragma GCC unroll 4`: gcc at -O2 leaves them
 * rolled otherwise.
 */

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace bzk {

/** 256-bit little-endian unsigned integer. */
struct U256
{
    std::array<uint64_t, 4> limb{0, 0, 0, 0};

    constexpr U256() = default;

    /** Construct from a single 64-bit value. */
    constexpr explicit U256(uint64_t lo) : limb{lo, 0, 0, 0} {}

    /** Construct from four little-endian limbs. */
    constexpr U256(uint64_t l0, uint64_t l1, uint64_t l2, uint64_t l3)
        : limb{l0, l1, l2, l3}
    {
    }

    constexpr bool
    operator==(const U256 &other) const
    {
        return limb == other.limb;
    }

    /** True iff the value is zero. */
    constexpr bool
    isZero() const
    {
        return (limb[0] | limb[1] | limb[2] | limb[3]) == 0;
    }

    /** Value of bit @p i (0 = least significant). */
    constexpr int
    bit(unsigned i) const
    {
        return static_cast<int>((limb[i / 64] >> (i % 64)) & 1);
    }

    /** True iff the value is odd. */
    constexpr bool isOdd() const { return limb[0] & 1; }

    /** Index of the highest set bit plus one; 0 for zero. */
    constexpr unsigned
    bitLength() const
    {
        for (int i = 3; i >= 0; --i) {
            if (limb[i] != 0) {
                unsigned hi = 63;
                while (!((limb[i] >> hi) & 1))
                    --hi;
                return static_cast<unsigned>(i) * 64 + hi + 1;
            }
        }
        return 0;
    }
};

/** Three-way compare: -1, 0 or 1. */
constexpr int
cmp(const U256 &a, const U256 &b)
{
#pragma GCC unroll 4
    for (int i = 3; i >= 0; --i) {
        if (a.limb[i] < b.limb[i])
            return -1;
        if (a.limb[i] > b.limb[i])
            return 1;
    }
    return 0;
}

/** a < b */
constexpr bool
lt(const U256 &a, const U256 &b)
{
    return cmp(a, b) < 0;
}

/** a + b, returning the carry-out in @p carry. */
constexpr U256
addCarry(const U256 &a, const U256 &b, uint64_t &carry)
{
    U256 r;
    uint64_t c = 0;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
        __uint128_t sum = static_cast<__uint128_t>(a.limb[i]) + b.limb[i] + c;
        r.limb[i] = static_cast<uint64_t>(sum);
        c = static_cast<uint64_t>(sum >> 64);
    }
    carry = c;
    return r;
}

/** a - b, returning the borrow-out in @p borrow. */
constexpr U256
subBorrow(const U256 &a, const U256 &b, uint64_t &borrow)
{
    U256 r;
    uint64_t bw = 0;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
        __uint128_t diff = static_cast<__uint128_t>(a.limb[i]) - b.limb[i] - bw;
        r.limb[i] = static_cast<uint64_t>(diff);
        bw = static_cast<uint64_t>((diff >> 64) != 0 ? 1 : 0);
    }
    borrow = bw;
    return r;
}

/** (a + b) mod m, requiring a, b < m. */
constexpr U256
addMod(const U256 &a, const U256 &b, const U256 &m)
{
    uint64_t carry = 0;
    U256 sum = addCarry(a, b, carry);
    if (carry || cmp(sum, m) >= 0) {
        uint64_t borrow = 0;
        sum = subBorrow(sum, m, borrow);
    }
    return sum;
}

/** (a - b) mod m, requiring a, b < m. */
constexpr U256
subMod(const U256 &a, const U256 &b, const U256 &m)
{
    uint64_t borrow = 0;
    U256 diff = subBorrow(a, b, borrow);
    if (borrow) {
        uint64_t carry = 0;
        diff = addCarry(diff, m, carry);
    }
    return diff;
}

/**
 * (2^shift_bits * a) mod m computed by repeated modular doubling.
 * Used only for compile-time constant derivation (R, R^2).
 */
constexpr U256
shiftLeftMod(U256 a, unsigned shift_bits, const U256 &m)
{
    for (unsigned i = 0; i < shift_bits; ++i)
        a = addMod(a, a, m);
    return a;
}

/** -m^{-1} mod 2^64 via Newton iteration; @p m0 must be odd. */
constexpr uint64_t
negInv64(uint64_t m0)
{
    // x_{k+1} = x_k * (2 - m0 * x_k) doubles correct bits each step.
    uint64_t inv = 1;
    for (int i = 0; i < 6; ++i)
        inv *= 2 - m0 * inv;
    return ~inv + 1; // negate mod 2^64
}

/**
 * Serialize as 32 little-endian bytes into @p out, one byte at a time:
 * the portable reference for any host byte order. Fp::toBytes copies
 * the limbs directly on little-endian hosts.
 */
void u256ToBytes(const U256 &v, std::span<uint8_t, 32> out);

/** Parse 32 little-endian bytes (portable reference of Fp::fromBytes). */
U256 u256FromBytes(std::span<const uint8_t, 32> in);

/** Hex string (most-significant nibble first, 64 digits). */
std::string u256ToHex(const U256 &v);

} // namespace bzk

#endif // BZK_FF_U256_H_
