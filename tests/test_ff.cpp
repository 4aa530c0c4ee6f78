/**
 * @file
 * Unit and property tests for the finite-field substrate: U256, the
 * Montgomery fields (BN254 Fr/Fq), and the NTT.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ff/Fields.h"
#include "ff/Ntt.h"
#include "util/Rng.h"

namespace bzk {
namespace {

TEST(U256, AddSubRoundTrip)
{
    U256 a{0xffffffffffffffffULL, 1, 2, 3};
    U256 b{5, 0, 0, 0};
    uint64_t carry = 0;
    U256 s = addCarry(a, b, carry);
    EXPECT_EQ(carry, 0u);
    uint64_t borrow = 0;
    U256 back = subBorrow(s, b, borrow);
    EXPECT_EQ(borrow, 0u);
    EXPECT_EQ(back, a);
}

TEST(U256, CarryPropagates)
{
    U256 a{~0ULL, ~0ULL, ~0ULL, ~0ULL};
    uint64_t carry = 0;
    U256 s = addCarry(a, U256{1}, carry);
    EXPECT_EQ(carry, 1u);
    EXPECT_TRUE(s.isZero());
}

TEST(U256, Compare)
{
    EXPECT_LT(cmp(U256{1}, U256{2}), 0);
    EXPECT_EQ(cmp(U256{7}, U256{7}), 0);
    EXPECT_GT(cmp(U256{0, 0, 0, 1}, U256{~0ULL, ~0ULL, ~0ULL, 0}), 0);
}

TEST(U256, BitLength)
{
    EXPECT_EQ(U256{}.bitLength(), 0u);
    EXPECT_EQ(U256{1}.bitLength(), 1u);
    EXPECT_EQ(U256{0x80}.bitLength(), 8u);
    EXPECT_EQ((U256{0, 0, 0, 1}).bitLength(), 193u);
}

TEST(U256, BytesRoundTrip)
{
    U256 v{0x0123456789abcdefULL, 0xfedcba9876543210ULL, 42, 7};
    uint8_t buf[32];
    u256ToBytes(v, std::span<uint8_t, 32>(buf, 32));
    EXPECT_EQ(u256FromBytes(std::span<const uint8_t, 32>(buf, 32)), v);
}

TEST(U256, NegInv64)
{
    // Verify m * (-m^{-1}) == -1 (mod 2^64) for the BN254 moduli.
    uint64_t m = Bn254FrParams::kModulus.limb[0];
    EXPECT_EQ(m * (~negInv64(m) + 1), 1ULL);
}

/** Typed property tests shared by all field implementations. */
template <typename F>
class FieldTest : public ::testing::Test
{
};

using FieldTypes = ::testing::Types<Fr, Fq>;
TYPED_TEST_SUITE(FieldTest, FieldTypes);

TYPED_TEST(FieldTest, AdditiveIdentity)
{
    using F = TypeParam;
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        F a = F::random(rng);
        EXPECT_EQ(a + F::zero(), a);
        EXPECT_EQ(a - a, F::zero());
        EXPECT_EQ(a + (-a), F::zero());
    }
}

TYPED_TEST(FieldTest, MultiplicativeIdentity)
{
    using F = TypeParam;
    Rng rng(2);
    for (int i = 0; i < 50; ++i) {
        F a = F::random(rng);
        EXPECT_EQ(a * F::one(), a);
        EXPECT_EQ(F::one() * a, a);
    }
}

TYPED_TEST(FieldTest, MulCommutativeAssociative)
{
    using F = TypeParam;
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        F a = F::random(rng), b = F::random(rng), c = F::random(rng);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a * b) * c, a * (b * c));
    }
}

TYPED_TEST(FieldTest, Distributive)
{
    using F = TypeParam;
    Rng rng(4);
    for (int i = 0; i < 50; ++i) {
        F a = F::random(rng), b = F::random(rng), c = F::random(rng);
        EXPECT_EQ(a * (b + c), a * b + a * c);
    }
}

TYPED_TEST(FieldTest, InverseIsInverse)
{
    using F = TypeParam;
    Rng rng(5);
    for (int i = 0; i < 25; ++i) {
        F a = F::random(rng);
        if (a.isZero())
            continue;
        EXPECT_EQ(a * a.inverse(), F::one());
    }
}

TYPED_TEST(FieldTest, SquareMatchesMul)
{
    using F = TypeParam;
    Rng rng(6);
    for (int i = 0; i < 50; ++i) {
        F a = F::random(rng);
        EXPECT_EQ(a.square(), a * a);
        EXPECT_EQ(a.dbl(), a + a);
    }
}

TYPED_TEST(FieldTest, PowMatchesRepeatedMul)
{
    using F = TypeParam;
    Rng rng(7);
    F a = F::random(rng);
    F acc = F::one();
    for (uint64_t e = 0; e < 20; ++e) {
        EXPECT_EQ(a.pow(e), acc);
        acc *= a;
    }
}

TYPED_TEST(FieldTest, BytesRoundTrip)
{
    using F = TypeParam;
    Rng rng(8);
    for (int i = 0; i < 25; ++i) {
        F a = F::random(rng);
        uint8_t buf[F::kNumBytes];
        a.toBytes(buf);
        EXPECT_EQ(F::fromBytes(buf), a);
    }
}

TYPED_TEST(FieldTest, FromUintHomomorphic)
{
    using F = TypeParam;
    EXPECT_EQ(F::fromUint(3) * F::fromUint(5), F::fromUint(15));
    EXPECT_EQ(F::fromUint(7) + F::fromUint(8), F::fromUint(15));
    EXPECT_EQ(F::fromUint(0), F::zero());
    EXPECT_EQ(F::fromUint(1), F::one());
}

TYPED_TEST(FieldTest, RootOfUnityHasExactOrder)
{
    using F = TypeParam;
    unsigned k = std::min(8u, F::kTwoAdicity);
    F w = F::rootOfUnity(k);
    EXPECT_EQ(w.pow(uint64_t{1} << k), F::one());
    EXPECT_NE(w.pow(uint64_t{1} << (k - 1)), F::one());
}

TYPED_TEST(FieldTest, SmallDotMatchesLiftedSum)
{
    // The encoder's lazily reduced row sum must equal the sum of
    // fromUint-lifted products bit for bit at every row length it
    // sees: 1..255 covers every sparse row degree and the dense base
    // rows (at most kEncoderBaseSize = 32 wide). Operands mix the
    // corners x in {0, 1, p-1}, c in {1, 2^32-1} with random values.
    using F = TypeParam;
    Rng rng(0x5d07);
    const F x_corner[] = {F::zero(), F::one(), -F::one()};
    const uint32_t c_corner[] = {1, 0xffffffffu};
    for (size_t len = 1; len <= 255; ++len) {
        typename F::SmallDot acc;
        F ref = F::zero();
        for (size_t i = 0; i < len; ++i) {
            size_t xs = rng.nextBounded(4), cs = rng.nextBounded(3);
            F x = xs < 3 ? x_corner[xs] : F::random(rng);
            uint32_t c = cs < 2 ? c_corner[cs]
                                : static_cast<uint32_t>(rng.next());
            acc.add(x, c);
            ref += x * F::fromUint(c);
        }
        EXPECT_EQ(acc.result(), ref) << "len " << len;
    }
    // The largest accumulator a row can reach: every term (p-1)(2^32-1).
    typename F::SmallDot worst;
    F ref = F::zero();
    for (size_t i = 0; i < 255; ++i) {
        worst.add(-F::one(), 0xffffffffu);
        ref += -F::one() * F::fromUint(0xffffffffu);
    }
    EXPECT_EQ(worst.result(), ref);
    EXPECT_EQ(typename F::SmallDot{}.result(), F::zero());
}

template <typename F>
class MontFieldTest : public ::testing::Test
{
};

using MontFields = ::testing::Types<Fr, Fq>;
TYPED_TEST_SUITE(MontFieldTest, MontFields);

TYPED_TEST(MontFieldTest, ToU256IsCanonicalAndRoundTrips)
{
    using F = TypeParam;
    uint64_t borrow = 0;
    const U256 pm1 = subBorrow(F::kModulus, U256{1}, borrow);
    EXPECT_EQ(F::zero().toU256(), U256{});
    EXPECT_EQ(F::one().toU256(), U256{1});
    EXPECT_EQ(F::fromUint(0xfedcba9876543210ULL).toU256(),
              U256{0xfedcba9876543210ULL});
    EXPECT_EQ((-F::one()).toU256(), pm1);
    Rng rng(0x7ed);
    for (int i = 0; i < 1000; ++i) {
        F x = F::random(rng);
        U256 v = x.toU256();
        EXPECT_LT(cmp(v, F::kModulus), 0);
        EXPECT_EQ(F::fromU256(v), x);
    }
}

TYPED_TEST(MontFieldTest, ToBytesMatchesPortableAndRoundTrips)
{
    // toBytes copies the limbs on little-endian hosts; it must equal
    // the portable byte loop, and fromBytes must invert it.
    using F = TypeParam;
    uint64_t borrow = 0;
    const U256 pm1 = subBorrow(F::kModulus, U256{1}, borrow);
    std::vector<F> xs = {F::zero(), F::one(), F::fromU256(pm1)};
    Rng rng(0xb17e5);
    for (int i = 0; i < 10000; ++i)
        xs.push_back(F::random(rng));
    for (const F &x : xs) {
        uint8_t got[32], want[32];
        x.toBytes(got);
        u256ToBytes(x.toU256(), std::span<uint8_t, 32>(want, 32));
        ASSERT_EQ(std::memcmp(got, want, 32), 0) << x.toHexString();
        ASSERT_EQ(F::fromBytes(got), x);
    }
}

TYPED_TEST(MontFieldTest, FromCanonicalBytesAcceptsExactlyBelowP)
{
    // p and p + 1 reduce to 0 and 1 under fromBytes but have no
    // canonical reading; 2^256 - 1 is the largest encodable integer.
    using F = TypeParam;
    uint64_t borrow = 0, carry = 0;
    const U256 pm1 = subBorrow(F::kModulus, U256{1}, borrow);
    const U256 pp1 = addCarry(F::kModulus, U256{1}, carry);
    const U256 max{~0ULL, ~0ULL, ~0ULL, ~0ULL};
    uint8_t buf[32];
    for (const U256 &v : {U256{}, U256{1}, pm1}) {
        u256ToBytes(v, std::span<uint8_t, 32>(buf, 32));
        auto x = F::fromCanonicalBytes(buf);
        ASSERT_TRUE(x.has_value()) << u256ToHex(v);
        EXPECT_EQ(x->toU256(), v);
    }
    for (const U256 &v : {F::kModulus, pp1, max}) {
        u256ToBytes(v, std::span<uint8_t, 32>(buf, 32));
        EXPECT_FALSE(F::fromCanonicalBytes(buf).has_value())
            << u256ToHex(v);
    }
    u256ToBytes(pp1, std::span<uint8_t, 32>(buf, 32));
    EXPECT_EQ(F::fromBytes(buf), F::one());
}

TYPED_TEST(MontFieldTest, SmallDotReducesSumsNearMultiplesOfP)
{
    // result() reduces with one quotient estimate that may fall one
    // short; sums of k * p + {0, 1, p - 1} and k * p - 1 make the
    // remainder land at both ends of [0, 2p). The operands are the
    // elements whose Montgomery limbs are 1 and p - 1.
    using F = TypeParam;
    const F unit = F::fromU256(F::one().montRaw()).inverse();
    ASSERT_EQ(unit.montRaw(), U256{1});
    const F pm1 = -unit;
    Rng rng(0x9e57);
    for (size_t n : {size_t{1}, size_t{2}, size_t{100}, size_t{255}}) {
        for (uint32_t c : {1u, 0xffffffffu,
                           static_cast<uint32_t>(rng.next()) | 2u}) {
            for (int tail = 0; tail < 4; ++tail) {
                typename F::SmallDot acc;
                F ref = F::zero();
                auto add = [&](const F &x, uint32_t coeff) {
                    acc.add(x, coeff);
                    ref += x * F::fromUint(coeff);
                };
                // n - 1 pairs, then a last pair whose unit term the
                // tail may shorten by one: (p - 1) c + c = c p.
                for (size_t i = 0; i + 1 < n; ++i) {
                    add(pm1, c);
                    add(unit, c);
                }
                add(pm1, c);
                add(unit, tail == 3 ? c - 1 : c);
                if (tail == 1)
                    add(unit, 1);
                if (tail == 2)
                    add(pm1, 1);
                EXPECT_EQ(acc.result(), ref)
                    << "n=" << n << " c=" << c << " tail=" << tail;
            }
        }
    }
}

TEST(Fr, KnownModularReduction)
{
    // (p - 1) + 2 == 1 (mod p)
    uint64_t borrow = 0;
    U256 pm1 = subBorrow(Fr::kModulus, U256{1}, borrow);
    Fr a = Fr::fromU256(pm1);
    EXPECT_EQ(a + Fr::fromUint(2), Fr::one());
}

TEST(Fr, FromU256ReducesOversized)
{
    // 2^256 - 1 reduces to (2^256 - 1) mod p; verify via arithmetic:
    // fromU256(x) + 1 == fromU256(x + 1 computed mod p).
    U256 all{~0ULL, ~0ULL, ~0ULL, ~0ULL};
    Fr a = Fr::fromU256(all);
    Fr b = a + Fr::one();
    uint64_t carry = 0;
    U256 all_plus = addCarry(all, U256{1}, carry); // wraps to 0, carry 1
    EXPECT_TRUE(all_plus.isZero());
    // 2^256 mod p equals Montgomery R mod p; check b == R as a field elt.
    Fr r256 = Fr::fromU256(shiftLeftMod(U256{1}, 256, Fr::kModulus));
    EXPECT_EQ(b, r256);
}

template <typename F>
class NttTest : public ::testing::Test
{
};

using NttFields = ::testing::Types<Fr>;
TYPED_TEST_SUITE(NttTest, NttFields);

TYPED_TEST(NttTest, RoundTrip)
{
    using F = TypeParam;
    Rng rng(9);
    for (unsigned logn : {1u, 4u, 8u}) {
        std::vector<F> data(size_t{1} << logn);
        for (auto &x : data)
            x = F::random(rng);
        auto orig = data;
        ntt(data);
        intt(data);
        EXPECT_EQ(data, orig) << "size 2^" << logn;
    }
}

TYPED_TEST(NttTest, MatchesNaiveEvaluation)
{
    using F = TypeParam;
    Rng rng(10);
    unsigned logn = 4;
    size_t n = size_t{1} << logn;
    std::vector<F> coeffs(n);
    for (auto &c : coeffs)
        c = F::random(rng);
    auto evals = coeffs;
    ntt(evals);

    F w = F::rootOfUnity(logn);
    for (size_t i = 0; i < n; ++i) {
        F x = w.pow(static_cast<uint64_t>(i));
        F expect = F::zero();
        F xp = F::one();
        for (size_t j = 0; j < n; ++j) {
            expect += coeffs[j] * xp;
            xp *= x;
        }
        EXPECT_EQ(evals[i], expect) << "point " << i;
    }
}

TYPED_TEST(NttTest, ConvolutionProperty)
{
    // Pointwise product in evaluation domain == cyclic convolution.
    using F = TypeParam;
    Rng rng(11);
    size_t n = 8;
    std::vector<F> a(n), b(n);
    for (size_t i = 0; i < n / 2; ++i) {
        a[i] = F::random(rng);
        b[i] = F::random(rng);
    }
    // Naive product (degree < n so no wrap).
    std::vector<F> naive(n, F::zero());
    for (size_t i = 0; i < n / 2; ++i)
        for (size_t j = 0; j < n / 2; ++j)
            naive[i + j] += a[i] * b[j];

    auto fa = a, fb = b;
    ntt(fa);
    ntt(fb);
    for (size_t i = 0; i < n; ++i)
        fa[i] *= fb[i];
    intt(fa);
    EXPECT_EQ(fa, naive);
}

} // namespace
} // namespace bzk
