#ifndef BZK_FF_GOLDILOCKS_H_
#define BZK_FF_GOLDILOCKS_H_

/**
 * @file
 * The 64-bit Goldilocks prime field, p = 2^64 - 2^32 + 1.
 *
 * Provides a fast field with the same static interface as Fp<> so the
 * templated modules (sum-check, encoder, commitment) can be instantiated
 * for both 256-bit (paper setting) and 64-bit fields. Tests use it to
 * run larger instances quickly; the 2-adicity of 32 also supports NTTs.
 */

#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "util/Log.h"
#include "util/Rng.h"

namespace bzk {

/** Goldilocks prime field element (canonical form, value < p). */
class Goldilocks
{
  public:
    static constexpr uint64_t kModulus = 0xffffffff00000001ULL;
    static constexpr unsigned kTwoAdicity = 32;
    static constexpr size_t kNumBytes = 8;
    static constexpr size_t kBits = 64;
    static constexpr uint64_t kGenerator = 7;

    constexpr Goldilocks() : v_(0) {}

    /** Additive identity. */
    static constexpr Goldilocks zero() { return Goldilocks{}; }

    /** Multiplicative identity. */
    static constexpr Goldilocks
    one()
    {
        return fromUint(1);
    }

    /** Embed an integer, reducing mod p. */
    static constexpr Goldilocks
    fromUint(uint64_t v)
    {
        Goldilocks r;
        r.v_ = v >= kModulus ? v - kModulus : v;
        return r;
    }

    /** Canonical value in [0, p). */
    constexpr uint64_t toUint() const { return v_; }

    /**
     * Adopt an already-canonical limb without reduction. Trusted
     * constructor for the packed kernels (their outputs are canonical
     * by construction); a non-canonical argument is a kernel bug and
     * is caught by the toBytes() canonicality check.
     */
    static constexpr Goldilocks
    fromRaw(uint64_t v)
    {
        Goldilocks r;
        r.v_ = v;
        return r;
    }

    /** Serialize as 8 little-endian bytes. */
    void
    toBytes(uint8_t *out) const
    {
        // Serialized bytes feed Merkle hashing; a non-canonical limb
        // would make equal field elements hash differently, so it can
        // never be allowed to escape (only fromRaw can produce one).
        if (v_ >= kModulus)
            panic("Goldilocks::toBytes: non-canonical limb %016llx",
                  static_cast<unsigned long long>(v_));
        std::memcpy(out, &v_, 8);
    }

    /** Parse 8 little-endian bytes, reducing mod p. */
    static Goldilocks
    fromBytes(const uint8_t *in)
    {
        uint64_t v;
        std::memcpy(&v, in, 8);
        return fromUint(v);
    }

    /**
     * Parse 8 little-endian bytes that must hold a canonical value:
     * nullopt when the integer is >= p (the proof decoders' rule).
     */
    static std::optional<Goldilocks>
    fromCanonicalBytes(const uint8_t *in)
    {
        uint64_t v;
        std::memcpy(&v, in, 8);
        if (v >= kModulus)
            return std::nullopt;
        return fromRaw(v);
    }

    /**
     * Derive an element from arbitrary transcript bytes (up to 16 are
     * consumed, little-endian) via a full 128-bit reduction. Earlier
     * revisions truncated to the low 8 bytes and reduced with `v % p`,
     * which both discarded half of a 32-byte challenge digest and kept
     * the ~2^-32 modulo bias of a single-limb reduction; the two-limb
     * path matches how Fp<> consumes wide digests. For len <= 8 the
     * mapping is unchanged.
     */
    static Goldilocks
    fromBytesReduce(const uint8_t *in, size_t len)
    {
        uint8_t buf[16] = {0};
        std::memcpy(buf, in, len < 16 ? len : 16);
        uint64_t lo, hi;
        std::memcpy(&lo, buf, 8);
        std::memcpy(&hi, buf + 8, 8);
        Goldilocks r;
        r.v_ = reduce128((static_cast<__uint128_t>(hi) << 64) | lo);
        return r;
    }

    /** Uniform random element for workload generation. */
    static Goldilocks
    random(Rng &rng)
    {
        // Rejection sampling keeps the distribution exactly uniform.
        uint64_t v;
        do {
            v = rng.next();
        } while (v >= kModulus);
        Goldilocks r;
        r.v_ = v;
        return r;
    }

    constexpr bool
    operator==(const Goldilocks &o) const
    {
        return v_ == o.v_;
    }

    constexpr bool
    operator!=(const Goldilocks &o) const
    {
        return v_ != o.v_;
    }

    /** True iff this is the additive identity. */
    constexpr bool isZero() const { return v_ == 0; }

    constexpr Goldilocks
    operator+(const Goldilocks &o) const
    {
        uint64_t sum = v_ + o.v_;
        // Overflow past 2^64 means the true sum exceeds p by at least
        // 2^64 - p; both cases fold back with one subtraction.
        if (sum < v_ || sum >= kModulus)
            sum -= kModulus;
        Goldilocks r;
        r.v_ = sum;
        return r;
    }

    constexpr Goldilocks
    operator-(const Goldilocks &o) const
    {
        uint64_t diff = v_ - o.v_;
        if (v_ < o.v_)
            diff += kModulus;
        Goldilocks r;
        r.v_ = diff;
        return r;
    }

    constexpr Goldilocks
    operator-() const
    {
        Goldilocks r;
        r.v_ = v_ == 0 ? 0 : kModulus - v_;
        return r;
    }

    constexpr Goldilocks
    operator*(const Goldilocks &o) const
    {
        Goldilocks r;
        r.v_ = reduce128(static_cast<__uint128_t>(v_) * o.v_);
        return r;
    }

    constexpr Goldilocks &
    operator+=(const Goldilocks &o)
    {
        return *this = *this + o;
    }

    constexpr Goldilocks &
    operator-=(const Goldilocks &o)
    {
        return *this = *this - o;
    }

    constexpr Goldilocks &
    operator*=(const Goldilocks &o)
    {
        return *this = *this * o;
    }

    /** this * this */
    constexpr Goldilocks square() const { return *this * *this; }

    /** 2 * this */
    constexpr Goldilocks dbl() const { return *this + *this; }

    /** this^e (square-and-multiply). */
    constexpr Goldilocks
    pow(uint64_t e) const
    {
        Goldilocks acc = one();
        Goldilocks base = *this;
        while (e != 0) {
            if (e & 1)
                acc *= base;
            base = base.square();
            e >>= 1;
        }
        return acc;
    }

    /**
     * Multiplicative inverse via Fermat. Zero has no inverse; the
     * Fermat power maps it to zero, which silently poisons downstream
     * arithmetic, so debug builds assert. Callers that may legitimately
     * see zeros use ff::batchInverse, whose skip-zero semantics are
     * explicit.
     */
    constexpr Goldilocks
    inverse() const
    {
        assert(!isZero() && "Goldilocks::inverse of zero");
        return pow(kModulus - 2);
    }

    /** Primitive 2^k-th root of unity, k <= 32. */
    static Goldilocks
    rootOfUnity(unsigned k)
    {
        uint64_t e = (kModulus - 1) >> k;
        return fromUint(kGenerator).pow(e);
    }

    /** Debug hex string of the canonical value. */
    std::string
    toHexString() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(v_));
        return buf;
    }

    /**
     * Lazily reduced sum of x_i * c_i over 32-bit integer coefficients
     * (the Spielman encoder's row sums), the Fp<>::SmallDot interface:
     * terms are below 2^96, so a u128 holds any sum of fewer than 2^32
     * of them and result() reduces once. Bit-identical to
     * sum_i x_i * fromUint(c_i), since fromUint(c) == c for c < p.
     */
    class SmallDot
    {
      public:
        /** acc += x * c. */
        constexpr void
        add(const Goldilocks &x, uint32_t c)
        {
            acc_ += static_cast<__uint128_t>(x.v_) * c;
        }

        /** acc mod p. */
        constexpr Goldilocks
        result() const
        {
            Goldilocks r;
            r.v_ = reduce128(acc_);
            return r;
        }

      private:
        __uint128_t acc_ = 0;
    };

  private:
    /** Reduce a 128-bit product using 2^64 = 2^32 - 1 (mod p). */
    static constexpr uint64_t
    reduce128(__uint128_t x)
    {
        uint64_t lo = static_cast<uint64_t>(x);
        uint64_t hi = static_cast<uint64_t>(x >> 64);
        uint64_t hi_hi = hi >> 32;
        uint64_t hi_lo = hi & 0xffffffffULL;

        uint64_t t0 = lo - hi_hi;
        if (lo < hi_hi)
            t0 -= 0xffffffffULL; // borrow of 2^64 ≡ 2^32 - 1 (mod p)
        uint64_t t1 = hi_lo * 0xffffffffULL;
        uint64_t t2 = t0 + t1;
        if (t2 < t1)
            t2 += 0xffffffffULL; // carry of 2^64 ≡ 2^32 - 1 (mod p)
        if (t2 >= kModulus)
            t2 -= kModulus;
        return t2;
    }

    uint64_t v_;
};

} // namespace bzk

#endif // BZK_FF_GOLDILOCKS_H_
