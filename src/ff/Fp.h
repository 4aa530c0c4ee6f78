#ifndef BZK_FF_FP_H_
#define BZK_FF_FP_H_

/**
 * @file
 * Montgomery-form prime field Fp templated on a parameter pack.
 *
 * Elements are stored in Montgomery form (x * R mod p with R = 2^256).
 * Multiplication uses the CIOS algorithm with 128-bit accumulation; the
 * implementation requires the modulus to fit in 255 bits, which both
 * BN254 fields satisfy. The limb loops of montMul, redc and SmallDot
 * carry `#pragma GCC unroll` (gcc at -O2 keeps them rolled otherwise),
 * so the scalar path outside the lane kernels runs straight-line code.
 */

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>

#include "ff/U256.h"
#include "util/Rng.h"

namespace bzk {

/**
 * Prime field element in Montgomery form.
 *
 * @tparam Params parameter pack exposing kModulus, kGenerator,
 *         kTwoAdicity and kName (see FieldParams.h).
 */
template <typename Params>
class Fp
{
  public:
    static constexpr U256 kModulus = Params::kModulus;
    static constexpr uint64_t kInv = negInv64(Params::kModulus.limb[0]);
    static constexpr unsigned kTwoAdicity = Params::kTwoAdicity;
    static constexpr size_t kNumBytes = 32;
    static constexpr size_t kBits = 254;

    static_assert(Params::kModulus.limb[0] & 1, "modulus must be odd");

    constexpr Fp() : mont_{} {}

    /** Additive identity. */
    static constexpr Fp zero() { return Fp{}; }

    /** Multiplicative identity. */
    static constexpr Fp
    one()
    {
        return fromU256Raw(montR());
    }

    /** Embed a small integer. */
    static constexpr Fp
    fromUint(uint64_t v)
    {
        return fromU256(U256{v});
    }

    /**
     * Embed a 256-bit standard-form integer, reducing mod p.
     * Accepts any value in [0, 2^256).
     */
    static constexpr Fp
    fromU256(U256 v)
    {
        // v < 2^256 < 8p for our 254-bit moduli; a short subtract loop
        // canonicalizes before entering Montgomery form.
        while (cmp(v, kModulus) >= 0) {
            uint64_t borrow = 0;
            v = subBorrow(v, kModulus, borrow);
        }
        Fp r;
        r.mont_ = montMul(v, montR2());
        return r;
    }

    /**
     * Standard-form value in [0, p): the four Montgomery folding
     * rounds alone (x * R^{-1}), without montMul's multiply-by-one
     * partial products.
     */
    constexpr U256
    toU256() const
    {
        return redc(mont_);
    }

    /**
     * Serialize the canonical value as 32 little-endian bytes. On a
     * little-endian host the four limbs already are those bytes; other
     * hosts take the portable u256ToBytes loop.
     */
    void
    toBytes(uint8_t *out) const
    {
        U256 v = toU256();
        if constexpr (std::endian::native == std::endian::little)
            std::memcpy(out, v.limb.data(), kNumBytes);
        else
            u256ToBytes(v, std::span<uint8_t, 32>(out, 32));
    }

    /** Parse 32 little-endian bytes, reducing mod p. */
    static Fp
    fromBytes(const uint8_t *in)
    {
        return fromU256(loadBytes(in));
    }

    /**
     * Parse 32 little-endian bytes that must hold a canonical value:
     * nullopt when the integer is >= p, so every element has exactly
     * one encoding (the proof decoders' rule).
     */
    static std::optional<Fp>
    fromCanonicalBytes(const uint8_t *in)
    {
        U256 v = loadBytes(in);
        if (cmp(v, kModulus) >= 0)
            return std::nullopt;
        return fromU256Raw(montMul(v, montR2()));
    }

    /**
     * Derive a field element from arbitrary bytes (transcript output),
     * interpreting up to the first 32 bytes little-endian and reducing.
     */
    static Fp
    fromBytesReduce(const uint8_t *in, size_t len)
    {
        uint8_t buf[32] = {0};
        std::memcpy(buf, in, len < 32 ? len : 32);
        return fromBytes(buf);
    }

    /** Uniform random element (for workloads; not protocol challenges). */
    static Fp
    random(Rng &rng)
    {
        U256 v{rng.next(), rng.next(), rng.next(), rng.next()};
        return fromU256(v);
    }

    constexpr bool
    operator==(const Fp &other) const
    {
        return mont_ == other.mont_;
    }

    constexpr bool
    operator!=(const Fp &other) const
    {
        return !(*this == other);
    }

    /** True iff this is the additive identity. */
    constexpr bool isZero() const { return mont_.isZero(); }

    constexpr Fp
    operator+(const Fp &other) const
    {
        Fp r;
        r.mont_ = addMod(mont_, other.mont_, kModulus);
        return r;
    }

    constexpr Fp
    operator-(const Fp &other) const
    {
        Fp r;
        r.mont_ = subMod(mont_, other.mont_, kModulus);
        return r;
    }

    constexpr Fp
    operator-() const
    {
        Fp r;
        r.mont_ = subMod(U256{}, mont_, kModulus);
        return r;
    }

    constexpr Fp
    operator*(const Fp &other) const
    {
        Fp r;
        r.mont_ = montMul(mont_, other.mont_);
        return r;
    }

    constexpr Fp &
    operator+=(const Fp &other)
    {
        return *this = *this + other;
    }

    constexpr Fp &
    operator-=(const Fp &other)
    {
        return *this = *this - other;
    }

    constexpr Fp &
    operator*=(const Fp &other)
    {
        return *this = *this * other;
    }

    /** this * this */
    constexpr Fp
    square() const
    {
        return *this * *this;
    }

    /** 2 * this */
    constexpr Fp
    dbl() const
    {
        Fp r;
        r.mont_ = addMod(mont_, mont_, kModulus);
        return r;
    }

    /** this^e for a 256-bit exponent (square-and-multiply). */
    constexpr Fp
    pow(const U256 &e) const
    {
        Fp acc = one();
        unsigned bits = e.bitLength();
        for (int i = static_cast<int>(bits) - 1; i >= 0; --i) {
            acc = acc.square();
            if (e.bit(static_cast<unsigned>(i)))
                acc = acc * *this;
        }
        return acc;
    }

    /** this^e for a 64-bit exponent. */
    constexpr Fp
    pow(uint64_t e) const
    {
        return pow(U256{e});
    }

    /**
     * Multiplicative inverse via Fermat's little theorem (this^(p-2)).
     * @pre not zero. Zero has no inverse; the Fermat power maps it to
     * zero, which silently poisons downstream arithmetic, so debug
     * builds assert. Callers that may legitimately see zeros use
     * ff::batchInverse, whose skip-zero semantics are explicit.
     */
    constexpr Fp
    inverse() const
    {
        assert(!isZero() && "Fp::inverse of zero");
        uint64_t borrow = 0;
        U256 pm2 = subBorrow(kModulus, U256{2}, borrow);
        return pow(pm2);
    }

    /**
     * Primitive 2^k-th root of unity; requires k <= kTwoAdicity.
     * Derived as g^((p-1)/2^k) from the field generator.
     */
    static Fp
    rootOfUnity(unsigned k)
    {
        uint64_t borrow = 0;
        U256 e = subBorrow(kModulus, U256{1}, borrow);
        // e /= 2^k via limb shifts
        for (unsigned i = 0; i < k; ++i) {
            for (int j = 0; j < 4; ++j) {
                e.limb[j] >>= 1;
                if (j < 3)
                    e.limb[j] |= e.limb[j + 1] << 63;
            }
        }
        return fromUint(Params::kGenerator).pow(e);
    }

    /** Debug hex of the canonical value. */
    std::string
    toHexString() const
    {
        return u256ToHex(toU256());
    }

    /** Raw Montgomery limbs (for hashing into transcripts cheaply). */
    constexpr const U256 &montRaw() const { return mont_; }

    /**
     * Lazily reduced sum of x_i * c_i over 32-bit integer coefficients
     * c_i — the Spielman encoder's row sums. Each add() multiplies the
     * four limbs of x by the raw c into four independent 128-bit
     * column sums (no carries between limbs, no reduction); result()
     * or residue() propagates the carries and reduces once.
     *
     * The limbs may be an element's Montgomery form (add(Fp)) or any
     * value below p, such as a canonical residue (add(U256)).
     * residue() is the canonical residue of the integer sum, so over
     * Montgomery limbs result() is bit-identical to
     * sum_i x_i * fromUint(c_i): the Montgomery form of that product is
     * x_i.mont * c_i mod p, mont() is linear, and the canonical residue
     * is unique. Over canonical limbs residue() is, by the same
     * argument, the canonical value of that sum. Each limb product is
     * below 2^64 * 2^32 = 2^96 and each term below 2^254 * 2^32 =
     * 2^286, so a sum of fewer than 2^24 terms stays below 2^310
     * (residue()'s bound); encoder rows have at most 255 terms.
     */
    class SmallDot
    {
      public:
        /** acc += x * c over the limbs of @p x (a value below p). */
        constexpr void
        add(const U256 &x, uint32_t c)
        {
#pragma GCC unroll 4
            for (int j = 0; j < 4; ++j)
                acc_[j] += static_cast<__uint128_t>(x.limb[j]) * c;
        }

        /** acc += x * c over the Montgomery limbs of @p x. */
        constexpr void add(const Fp &x, uint32_t c) { add(x.mont_, c); }

        /** The field element whose Montgomery form is acc mod p. */
        constexpr Fp result() const { return fromU256Raw(residue()); }

        /**
         * acc mod p, by one quotient estimate. With h = acc >> 192
         * (below 2^118) and p3 = p >> 192, q = h / (p3 + 1) satisfies
         * q <= acc / p < q + 1 + h / p3^2 + 1 / p3, and h / p3^2 < 1/16
         * for p >= 2^253; so acc - q * p lies in [0, 2p) and one
         * conditional subtraction leaves the canonical residue.
         */
        constexpr U256
        residue() const
        {
            static_assert(kModulus.limb[3] >= (uint64_t{1} << 61),
                          "the quotient estimate needs p >= 2^253");
            uint64_t lo[4];
            __uint128_t t = acc_[0];
            lo[0] = static_cast<uint64_t>(t);
#pragma GCC unroll 3
            for (int j = 1; j < 4; ++j) {
                t = acc_[j] + (t >> 64);
                lo[j] = static_cast<uint64_t>(t);
            }
            const __uint128_t h = (t >> 64 << 64) | lo[3];
            const uint64_t q =
                static_cast<uint64_t>(h / (kModulus.limb[3] + 1));
            // r = acc - q * p; the fifth limb of the difference is zero.
            U256 r;
            uint64_t carry = 0, borrow = 0;
#pragma GCC unroll 4
            for (int j = 0; j < 4; ++j) {
                __uint128_t qp =
                    static_cast<__uint128_t>(q) * kModulus.limb[j] + carry;
                carry = static_cast<uint64_t>(qp >> 64);
                __uint128_t d = static_cast<__uint128_t>(lo[j]) -
                                static_cast<uint64_t>(qp) - borrow;
                r.limb[j] = static_cast<uint64_t>(d);
                borrow = static_cast<uint64_t>(d >> 64) & 1;
            }
            if (cmp(r, kModulus) >= 0)
                r = subBorrow(r, kModulus, borrow);
            return r;
        }

      private:
        __uint128_t acc_[4] = {0, 0, 0, 0};
    };

  private:
    static constexpr Fp
    fromU256Raw(const U256 &mont)
    {
        Fp r;
        r.mont_ = mont;
        return r;
    }

    /** The 32 little-endian bytes at @p in as an integer (no reduction). */
    static U256
    loadBytes(const uint8_t *in)
    {
        if constexpr (std::endian::native == std::endian::little) {
            U256 v;
            std::memcpy(v.limb.data(), in, kNumBytes);
            return v;
        } else {
            return u256FromBytes(std::span<const uint8_t, 32>(in, 32));
        }
    }

    /** R = 2^256 mod p. */
    static constexpr U256
    montR()
    {
        return shiftLeftMod(U256{1}, 256, kModulus);
    }

    /** R^2 = 2^512 mod p. */
    static constexpr U256
    montR2()
    {
        return shiftLeftMod(U256{1}, 512, kModulus);
    }

    /**
     * Montgomery product (a * b * R^{-1} mod p) via CIOS.
     * Requires p < 2^255 so the running sum fits in 6 limbs.
     */
    static constexpr U256
    montMul(const U256 &a, const U256 &b)
    {
        uint64_t t[6] = {0, 0, 0, 0, 0, 0};
#pragma GCC unroll 4
        for (int i = 0; i < 4; ++i) {
            // t += a * b[i]
            uint64_t carry = 0;
#pragma GCC unroll 4
            for (int j = 0; j < 4; ++j) {
                __uint128_t cur = static_cast<__uint128_t>(a.limb[j]) *
                                      b.limb[i] +
                                  t[j] + carry;
                t[j] = static_cast<uint64_t>(cur);
                carry = static_cast<uint64_t>(cur >> 64);
            }
            __uint128_t cur = static_cast<__uint128_t>(t[4]) + carry;
            t[4] = static_cast<uint64_t>(cur);
            t[5] = static_cast<uint64_t>(cur >> 64);

            // Fold out the low limb: t = (t + m*p) / 2^64
            uint64_t m = t[0] * kInv;
            __uint128_t acc = static_cast<__uint128_t>(m) *
                                  kModulus.limb[0] +
                              t[0];
            carry = static_cast<uint64_t>(acc >> 64);
#pragma GCC unroll 3
            for (int j = 1; j < 4; ++j) {
                acc = static_cast<__uint128_t>(m) * kModulus.limb[j] +
                      t[j] + carry;
                t[j - 1] = static_cast<uint64_t>(acc);
                carry = static_cast<uint64_t>(acc >> 64);
            }
            acc = static_cast<__uint128_t>(t[4]) + carry;
            t[3] = static_cast<uint64_t>(acc);
            t[4] = t[5] + static_cast<uint64_t>(acc >> 64);
            t[5] = 0;
        }
        U256 r{t[0], t[1], t[2], t[3]};
        if (t[4] != 0 || cmp(r, kModulus) >= 0) {
            uint64_t borrow = 0;
            r = subBorrow(r, kModulus, borrow);
        }
        return r;
    }

    /**
     * Montgomery reduction a * R^{-1} mod p of a single 256-bit value:
     * montMul's folding rounds with no partial products. For a < p
     * every round keeps t < 2^255 and the result is already < p.
     */
    static constexpr U256
    redc(const U256 &a)
    {
        uint64_t t[4] = {a.limb[0], a.limb[1], a.limb[2], a.limb[3]};
#pragma GCC unroll 4
        for (int i = 0; i < 4; ++i) {
            // t = (t + m*p) / 2^64 with m chosen to clear the low limb.
            uint64_t m = t[0] * kInv;
            __uint128_t acc =
                static_cast<__uint128_t>(m) * kModulus.limb[0] + t[0];
            uint64_t carry = static_cast<uint64_t>(acc >> 64);
#pragma GCC unroll 3
            for (int j = 1; j < 4; ++j) {
                acc = static_cast<__uint128_t>(m) * kModulus.limb[j] +
                      t[j] + carry;
                t[j - 1] = static_cast<uint64_t>(acc);
                carry = static_cast<uint64_t>(acc >> 64);
            }
            t[3] = carry;
        }
        return U256{t[0], t[1], t[2], t[3]};
    }

    U256 mont_;
};

} // namespace bzk

#endif // BZK_FF_FP_H_
