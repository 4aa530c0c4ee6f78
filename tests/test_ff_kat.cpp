/**
 * @file
 * Known-answer tests for the field arithmetic, with expected values
 * computed by an independent big-integer implementation (CPython);
 * guards the Montgomery code against consistent-but-wrong arithmetic
 * that the algebraic property tests cannot see.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ff/FieldBackend.h"
#include "ff/Fields.h"
#include "ff/WideKernels.h"
#include "util/Hex.h"
#include "util/Rng.h"

namespace bzk {
namespace {

U256
u256FromHexStr(const std::string &hex)
{
    // Hex is most-significant first, 64 digits.
    auto bytes = fromHex(hex);
    EXPECT_EQ(bytes.size(), 32u);
    std::reverse(bytes.begin(), bytes.end()); // to little-endian
    return u256FromBytes(std::span<const uint8_t, 32>(bytes.data(), 32));
}

const char *kA =
    "123456789abcdef0fedcba9876543210123456789abcdef0fedcba9876543210";
const char *kB =
    "0f0e0d0c0b0a09080706050403020100ffeeddccbbaa99887766554433221100";

TEST(FrKat, Mul)
{
    Fr a = Fr::fromU256(u256FromHexStr(kA));
    Fr b = Fr::fromU256(u256FromHexStr(kB));
    EXPECT_EQ((a * b).toHexString(),
              "1350b4f42ed6ca0a68542755c442c814"
              "212d28a6856ee62ce107b3fb917c331b");
}

TEST(FrKat, Add)
{
    Fr a = Fr::fromU256(u256FromHexStr(kA));
    Fr b = Fr::fromU256(u256FromHexStr(kB));
    EXPECT_EQ((a + b).toHexString(),
              "21426384a5c6e7f905e2bf9c79563311"
              "122334455667787976430fdca9764310");
}

TEST(FrKat, Inverse)
{
    Fr a = Fr::fromU256(u256FromHexStr(kA));
    EXPECT_EQ(a.inverse().toHexString(),
              "0fd586d9834f8a524551a7b05798fd40"
              "65c83ceed28fd46fc4083015afbb6868");
}

TEST(FrKat, Pow)
{
    EXPECT_EQ(Fr::fromUint(5).pow(uint64_t{1000}).toHexString(),
              "250897e0356b83a11904963508fd8ee3"
              "db125e037b8b00a1d66727c21a8466bb");
}

TEST(FrKat, RootOfUnityOrder28)
{
    Fr w = Fr::rootOfUnity(28);
    EXPECT_EQ(w.toHexString(),
              "2a3c09f0a58a7e8500e0a7eb8ef62abc"
              "402d111e41112ed49bd61b6e725b19f0");
    // w^(2^27) = -1 = r - 1.
    Fr half = w;
    for (int i = 0; i < 27; ++i)
        half = half.square();
    EXPECT_EQ(half.toHexString(),
              "30644e72e131a029b85045b68181585d"
              "2833e84879b9709143e1f593f0000000");
    EXPECT_EQ(half, -Fr::one());
}

TEST(FqKat, Mul)
{
    Fq a = Fq::fromU256(u256FromHexStr(kA));
    Fq b = Fq::fromU256(u256FromHexStr(kB));
    EXPECT_EQ((a * b).toHexString(),
              "0c760fa44bc48d9e84498818d971edb1"
              "667dc4403d458fdf5a49f36fd44a66cf");
}

TEST(FrKat, MontgomeryFormInvisible)
{
    // toU256 of small values must be the values themselves (round-trip
    // through Montgomery form is the identity on canonical integers).
    for (uint64_t v : {0ULL, 1ULL, 2ULL, 123456789ULL}) {
        U256 u = Fr::fromUint(v).toU256();
        EXPECT_EQ(u, U256{v});
    }
}

TEST(FrKat, ModulusMinusOneSquares)
{
    // (-1)^2 == 1 catches sign/reduction slips at the modulus boundary.
    Fr m1 = -Fr::one();
    EXPECT_EQ(m1 * m1, Fr::one());
    EXPECT_EQ(m1.square(), Fr::one());
}

// ---- Lane kernel KATs ------------------------------------------------
//
// Every backend this host can run is swept through the same call
// sites: scalar (Fp's own loop, the reference) and the 8-way IFMA
// kernels where the CPU has vpmadd52.

/** Every lane-kernel backend this host can run. */
std::vector<ff::Backend>
availableBackends()
{
    std::vector<ff::Backend> backends;
    for (ff::Backend b : {ff::Backend::kScalar, ff::Backend::kIfma})
        if (ff::backendAvailable(b))
            backends.push_back(b);
    return backends;
}

class BackendGuard
{
  public:
    ~BackendGuard() { ff::clearForcedBackend(); }
};

/** Operand mix hitting the modulus boundary in SIMD-body lanes. */
template <typename F>
std::vector<F>
wideEdgeOperands(size_t n, uint64_t salt)
{
    Rng rng(0x5eed ^ salt);
    std::vector<F> v(n);
    for (auto &x : v)
        x = F::random(rng);
    if (n > 0)
        v[0] = -F::one(); // p - 1
    if (n > 1)
        v[1] = F::zero();
    if (n > 2)
        v[2] = -F::one();
    if (n > 3)
        v[3] = F::one();
    return v;
}

TEST(FieldBackendKat, MulAddSubAtModulusBoundary)
{
    BackendGuard guard;
    // 9 elements: one IFMA block plus an Fp tail.
    const Fr pm1 = -Fr::one(), pm2 = -Fr::fromUint(2);
    std::vector<Fr> a(9, pm1), b(9, pm2), out(9);
    for (ff::Backend backend : availableBackends()) {
        SCOPED_TRACE(ff::backendName(backend));
        ff::forceBackend(backend);
        ff::mulLanes(a.data(), b.data(), out.data(), 9);
        for (const Fr &o : out)
            EXPECT_EQ(o, Fr::fromUint(2));
        ff::addLanes(a.data(), a.data(), out.data(), 9);
        for (const Fr &o : out)
            EXPECT_EQ(o, pm2);
        ff::subLanes(b.data(), a.data(), out.data(), 9);
        for (const Fr &o : out)
            EXPECT_EQ(o, -Fr::one());
    }
}

TEST(FieldBackendKat, BackendDispatchControls)
{
    BackendGuard guard;
    EXPECT_STREQ(ff::backendName(ff::Backend::kScalar), "scalar");
    EXPECT_STREQ(ff::backendName(ff::Backend::kIfma), "ifma");
    EXPECT_EQ(ff::backendLanes(ff::Backend::kScalar), 1u);
    EXPECT_EQ(ff::backendLanes(ff::Backend::kIfma), 8u);
    EXPECT_TRUE(ff::backendAvailable(ff::Backend::kScalar));
    for (ff::Backend backend : availableBackends()) {
        ff::forceBackend(backend);
        EXPECT_EQ(ff::activeBackend(), backend) << ff::backendName(backend);
    }
    ff::clearForcedBackend();
    // Re-resolution lands on an available backend.
    EXPECT_TRUE(ff::backendAvailable(ff::activeBackend()));
    // detectBackend ignores overrides and only names available ones.
    EXPECT_TRUE(ff::backendAvailable(ff::detectBackend()));
}

TEST(FieldBackendKat, BatchInverseMatchesFermatAndSkipsZeros)
{
    auto x = wideEdgeOperands<Fr>(33, 3);
    std::vector<Fr> want(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        want[i] = x[i].isZero() ? Fr::zero() : x[i].inverse();
    std::vector<Fr> got = x;
    // One zero at index 1: skipped, not inverted.
    EXPECT_EQ(ff::batchInverse(got.data(), got.size()), got.size() - 1);
    EXPECT_EQ(got, want);

    // Round trip: x * x^-1 == 1 for the non-zero entries.
    for (size_t i = 0; i < x.size(); ++i) {
        if (!x[i].isZero()) {
            EXPECT_EQ(x[i] * got[i], Fr::one());
        }
    }
}

TEST(FieldBackendKat, BatchInverseAllZeroAndEmpty)
{
    std::vector<Fr> zeros(5, Fr::zero());
    EXPECT_EQ(ff::batchInverse(zeros.data(), zeros.size()), 0u);
    for (const Fr &z : zeros)
        EXPECT_TRUE(z.isZero());
    EXPECT_EQ(ff::batchInverse(zeros.data(), 0), 0u);
}

/**
 * CPython-pinned lane products and dot over 9 elements (one past the
 * 8-wide IFMA block, so the Fp tail runs too): a_i = A + i,
 * b_i = B + i with the file-level kA/kB operands.
 */
template <typename F>
void
checkWideMulPinned(const char *const (&expect_mul)[9],
                   const char *expect_dot)
{
    BackendGuard guard;
    std::vector<F> a(9), b(9), out(9);
    for (uint64_t i = 0; i < 9; ++i) {
        a[i] = F::fromU256(u256FromHexStr(kA)) + F::fromUint(i);
        b[i] = F::fromU256(u256FromHexStr(kB)) + F::fromUint(i);
    }
    for (ff::Backend backend : availableBackends()) {
        SCOPED_TRACE(ff::backendName(backend));
        ff::forceBackend(backend);
        ff::mulLanes(a.data(), b.data(), out.data(), 9);
        for (size_t i = 0; i < 9; ++i)
            EXPECT_EQ(out[i].toHexString(), expect_mul[i]) << "lane " << i;
        EXPECT_EQ(ff::dotLanes(a.data(), b.data(), 9).toHexString(),
                  expect_dot);
    }
}

TEST(WideFieldKat, FrLaneMulPinned)
{
    static const char *const kMul[9] = {
        "1350b4f42ed6ca0a68542755c442c814212d28a6856ee62ce107b3fb917c331b",
        "042eca05f36c11d9b5e6a13bbc17a2c80b1c74a3621cee151368ce444af2762b",
        "25712d8a9932f9d2bbc960d8356dd5d91d3fa8e8b884668e89abde20f468b93e",
        "164f429c5dc841a2095bdabe2d42b08d072ef4e595326e76bc0cf869addefc52",
        "072d57ae225d897156ee54a425178b40f11e40e271e0765eee6e12b267553f68",
        "286fbb32c824716a5cd114409e6dbe5203417527c847eed864b1228f10cb8281",
        "194dd0448cb9b939aa638e2696429905ed30c124a4f5f6c097123cd7ca41c59b",
        "0a2be556514f0108f7f6080c8e1773b9d7200d2181a3fea8c973572083b808b7",
        "2b6e48daf715e901fdd8c7a9076da6cae9434166d80b77223fb666fd2d2e4bd6",
    };
    checkWideMulPinned<Fr>(
        kMul,
        "1033c6ac541834d25610b40ecc528ceb51dc5fad872ab8c51dfcb2b1b1ff3ae3");
}

TEST(WideFieldKat, FqLaneMulPinned)
{
    static const char *const kMul[9] = {
        "0c760fa44bc48d9e84498818d971edb1667dc4403d458fdf5a49f36fd44a66cf",
        "2db87328f18b75978a2c47b552c820c278a0f88593ad0858d08d034c7dc0a9e0",
        "1e96883ab620bd66d7bec19b4a9cfb75f342c23981a2b6450aaf87124eb9efac",
        "0f749d4c7ab6053625513b814271d6296de48bed6f98643144d20ad81fb3357a",
        "0052b25e3f4b4d0572e3b5673a46b0dce88655a15d8e121d7ef48e9df0ac7b4a",
        "219515e2e51234fe78c67503b39ce3edfaa989e6b3f58a96f5379e7a9a22be63",
        "12732af4a9a77ccdc658eee9ab71bea1754b539aa1eb38832f5a22406b1c0437",
        "035140066e3cc49d13eb68cfa3469954efed1d4e8fe0e66f697ca6063c154a0d",
        "2493a38b1403ac9619ce286c1c9ccc6602105193e6485ee8dfbfb5e2e58b8d2c",
    };
    checkWideMulPinned<Fq>(
        kMul,
        "02e8455039a5b5310a0160a10c7c37c42cb902ac49fea3097699038d761055d6");
}

/**
 * R^-1: the element whose Montgomery integer is 1. Its multiples reach
 * Montgomery integers just below p, the largest products.
 */
template <typename F>
F
rInverse()
{
    F r = F::one();
    for (int bit = 0; bit < 256; ++bit)
        r = r.dbl();
    return r.inverse();
}

template <typename F>
void
checkWideLaneKernels()
{
    BackendGuard guard;
    // fold's and axpy's scalar enters the reduction pre-shifted, as
    // 16 r: besides kB, p - 1, the element whose Montgomery integer is
    // p - 1 (the largest input the reduction takes) and 0.
    const F scalars[] = {F::fromU256(u256FromHexStr(kB)), -F::one(),
                         -rInverse<F>(), F::zero()};
    // Sizes around the 8-wide IFMA block: empty, shorter than a block,
    // exact multiples, and one-past, so the SIMD blocks and the Fp
    // tail each run alone and together. mul, fold and axpy take four
    // blocks per iteration: 32 runs one batch alone, 40 and 56 add
    // single blocks after it, and 97 three batches and an Fp tail.
    const size_t sizes[] = {0, 1,  2,  3,  4,  5,  7,  8,
                            9, 16, 19, 32, 40, 56, 67, 97};
    for (ff::Backend backend : availableBackends()) {
        for (size_t n : sizes) {
            SCOPED_TRACE(std::string(ff::backendName(backend)) +
                         " n=" + std::to_string(n));
            auto a = wideEdgeOperands<F>(n, 1);
            auto b = wideEdgeOperands<F>(n, 2);

            ff::forceBackend(ff::Backend::kScalar);
            std::vector<F> want_add(n), want_sub(n), want_mul(n), want_sq(n);
            ff::addLanes(a.data(), b.data(), want_add.data(), n);
            ff::subLanes(a.data(), b.data(), want_sub.data(), n);
            ff::mulLanes(a.data(), b.data(), want_mul.data(), n);
            ff::mulLanes(a.data(), a.data(), want_sq.data(), n);
            F want_sum = ff::sumLanes(a.data(), n);
            F want_dot = ff::dotLanes(a.data(), b.data(), n);

            ff::forceBackend(backend);
            std::vector<F> got(n);
            ff::addLanes(a.data(), b.data(), got.data(), n);
            EXPECT_EQ(got, want_add);
            ff::subLanes(a.data(), b.data(), got.data(), n);
            EXPECT_EQ(got, want_sub);
            ff::mulLanes(a.data(), b.data(), got.data(), n);
            EXPECT_EQ(got, want_mul);

            // In place: add, sub and mul allow out == a, out == b and
            // out == a == b.
            got = a;
            ff::addLanes(got.data(), b.data(), got.data(), n);
            EXPECT_EQ(got, want_add);
            got = a;
            ff::subLanes(got.data(), b.data(), got.data(), n);
            EXPECT_EQ(got, want_sub);
            got = a;
            ff::mulLanes(got.data(), b.data(), got.data(), n);
            EXPECT_EQ(got, want_mul);
            got = b;
            ff::mulLanes(a.data(), got.data(), got.data(), n);
            EXPECT_EQ(got, want_mul);
            got = a;
            ff::mulLanes(got.data(), got.data(), got.data(), n);
            EXPECT_EQ(got, want_sq);

            EXPECT_EQ(ff::sumLanes(a.data(), n), want_sum);
            EXPECT_EQ(ff::dotLanes(a.data(), b.data(), n), want_dot);

            // Canonicality audit: packed outputs must stay < p in raw
            // Montgomery form or serialization and transcript hashing
            // would diverge between backends.
            for (const F &v : want_mul)
                EXPECT_LT(cmp(v.montRaw(), F::kModulus), 0);
            for (const F &v : got)
                EXPECT_LT(cmp(v.montRaw(), F::kModulus), 0);

            for (const F &r : scalars) {
                SCOPED_TRACE("r=" + r.toHexString());
                ff::forceBackend(ff::Backend::kScalar);
                std::vector<F> want_fold(n), want_axpy = a;
                ff::foldLanes(want_fold.data(), a.data(), b.data(), r, n);
                ff::axpyLanes(want_axpy.data(), b.data(), r, n);
                ff::forceBackend(backend);
                std::vector<F> got_fold(n), got_axpy = a;
                ff::foldLanes(got_fold.data(), a.data(), b.data(), r, n);
                EXPECT_EQ(got_fold, want_fold);
                // In place: fold allows out == lo.
                got_fold = a;
                ff::foldLanes(got_fold.data(), got_fold.data(), b.data(), r,
                              n);
                EXPECT_EQ(got_fold, want_fold);
                ff::axpyLanes(got_axpy.data(), b.data(), r, n);
                EXPECT_EQ(got_axpy, want_axpy);
                for (const F &v : got_fold)
                    EXPECT_LT(cmp(v.montRaw(), F::kModulus), 0);
                for (const F &v : got_axpy)
                    EXPECT_LT(cmp(v.montRaw(), F::kModulus), 0);
            }
        }
    }
}

TEST(WideFieldKat, FrLaneKernelsMatchScalarAcrossSizes)
{
    checkWideLaneKernels<Fr>();
}

TEST(WideFieldKat, FqLaneKernelsMatchScalarAcrossSizes)
{
    checkWideLaneKernels<Fq>();
}

TEST(WideFieldKat, WideCountersAdvance)
{
    BackendGuard guard;
    ff::resetKernelCounters();
    std::vector<Fr> a(16, Fr::one()), out(16);
    ff::mulLanes(a.data(), a.data(), out.data(), 16);
    ff::mulLanes(a.data(), a.data(), out.data(), 16);
    (void)ff::sumLanes(a.data(), 16);
    std::vector<Fr> inv = a;
    ff::batchInverse(inv.data(), inv.size());
    // A row combination counts as one dotLanes call.
    ff::combineRowsLanes(a.data(), 8, a.data(), 2, out.data(), 8);
    ff::KernelCounters c = ff::kernelCounters();
    EXPECT_EQ(c.wide_mul_lanes, 2u);
    EXPECT_EQ(c.wide_sum_lanes, 1u);
    EXPECT_EQ(c.wide_batch_inverse, 1u);
    EXPECT_EQ(c.wide_dot_lanes, 1u);
    EXPECT_EQ(c.wide_add_lanes, 0u);
}

/** The row combination in plain Fp, apart from every kernel. */
template <typename F>
std::vector<F>
referenceCombineRows(const std::vector<F> &rows, size_t stride,
                     const std::vector<F> &coeffs, size_t n)
{
    std::vector<F> out(n, F::zero());
    for (size_t j = 0; j < n; ++j)
        for (size_t row = 0; row < coeffs.size(); ++row)
            out[j] += coeffs[row] * rows[row * stride + j];
    return out;
}

template <typename F>
void
checkCombineRows()
{
    BackendGuard guard;
    // 0, p - 1 and the element whose Montgomery integer is p - 1 (the
    // largest product) among random values, in rows and coefficients.
    const F edges[] = {F::zero(), -F::one(), -rInverse<F>()};
    Rng rng(0xc0b1);
    auto value = [&](size_t i) {
        return i % 4 == 3 ? F::random(rng) : edges[i % 4];
    };
    // Row counts around the 256-row reduction span, widths around the
    // 8-column block; rows are 3 elements wider than the combination.
    for (size_t k : {1, 7, 255, 256, 257, 600}) {
        for (size_t n : {8, 9, 256, 263}) {
            const size_t stride = n + 3;
            std::vector<F> rows(k * stride), coeffs(k);
            for (size_t i = 0; i < rows.size(); ++i)
                rows[i] = value(i);
            for (size_t row = 0; row < k; ++row)
                coeffs[row] = value(row + 2);
            const std::vector<F> want =
                referenceCombineRows(rows, stride, coeffs, n);
            for (ff::Backend backend : availableBackends()) {
                SCOPED_TRACE(std::string(ff::backendName(backend)) +
                             " k=" + std::to_string(k) +
                             " n=" + std::to_string(n));
                ff::forceBackend(backend);
                std::vector<F> got(n);
                ff::combineRowsLanes(rows.data(), stride, coeffs.data(), k,
                                     got.data(), n);
                EXPECT_EQ(got, want);
                for (const F &v : got)
                    EXPECT_LT(cmp(v.montRaw(), F::kModulus), 0);
            }
        }
    }
}

TEST(WideFieldKat, FrCombineRowsMatchesPlainFp)
{
    checkCombineRows<Fr>();
}

TEST(WideFieldKat, FqCombineRowsMatchesPlainFp)
{
    checkCombineRows<Fq>();
}

TEST(FieldBackendKat, BatchInverseWorksForFr)
{
    // Random operands with the zero mid-array rather than at index 1.
    Rng rng(77);
    std::vector<Fr> x(9);
    for (auto &v : x)
        v = Fr::random(rng);
    x[4] = Fr::zero();
    std::vector<Fr> got = x;
    EXPECT_EQ(ff::batchInverse(got.data(), got.size()), x.size() - 1);
    for (size_t i = 0; i < x.size(); ++i) {
        if (x[i].isZero()) {
            EXPECT_TRUE(got[i].isZero());
        } else {
            EXPECT_EQ(x[i] * got[i], Fr::one());
        }
    }
}

TEST(WideFieldKat, FromCanonicalLanesMatchesFromU256)
{
    // Every backend, whole blocks and tails, edge values included.
    uint64_t borrow = 0;
    const U256 p_minus_1 = subBorrow(Fr::kModulus, U256{1}, borrow);
    Rng rng(78);
    for (ff::Backend backend : {ff::Backend::kScalar, ff::Backend::kIfma}) {
        if (!ff::backendAvailable(backend))
            continue;
        ff::forceBackend(backend);
        for (size_t n = 0; n <= 19; ++n) {
            std::vector<U256> in(n);
            for (size_t i = 0; i < n; ++i)
                in[i] = i % 3 == 0   ? p_minus_1
                        : i % 3 == 1 ? U256{i}
                                     : Fr::random(rng).toU256();
            std::vector<Fr> got(n);
            ff::fromCanonicalLanes(in.data(), got.data(), n);
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(got[i], Fr::fromU256(in[i]))
                    << ff::backendName(backend) << " n=" << n << " i=" << i;
        }
    }
    ff::clearForcedBackend();
}

/**
 * gateSumsLanes' sums in plain Fp, apart from every kernel: each x_t
 * interpolated as lo + t * (hi - lo), a^K as K - 1 multiplies.
 */
template <size_t K>
std::array<Fr, K + 2>
referenceGateSums(const std::vector<Fr> &a, const std::vector<Fr> &b,
                  const std::vector<Fr> &c, size_t half,
                  const std::vector<Fr> &w, size_t n)
{
    std::array<Fr, K + 2> sums{};
    for (size_t t = 0; t < K + 2; ++t) {
        Fr tf = Fr::fromUint(t);
        for (size_t i = 0; i < n; ++i) {
            auto at = [&](const std::vector<Fr> &x) {
                return x[i] + tf * (x[half + i] - x[i]);
            };
            Fr power = at(a);
            for (size_t k = 1; k < K; ++k)
                power *= at(a);
            sums[t] += w[i] * (power * at(b) - at(c));
        }
    }
    return sums;
}

/**
 * gateSumsLanes<K> under @p backend against referenceGateSums, at
 * lengths around the IFMA block, one call's span and more than one
 * carry interval, on edge and random unsatisfied inputs.
 */
template <size_t K>
void
checkGateSums(ff::Backend backend)
{
    BackendGuard guard;
    ff::forceBackend(backend);
    const Fr r_inv = rInverse<Fr>();
    uint64_t borrow = 0;
    const U256 p_minus_1 = subBorrow(Fr::kModulus, U256{1}, borrow);
    ASSERT_EQ((-r_inv).montRaw(), p_minus_1);

    Rng rng(0x9a7e + K);
    const char *inputs[] = {"zero",    "one",     "p-1",
                            "raw p-1", "below p", "random"};
    for (size_t n : {0, 1, 7, 8, 9, 2048, 2049}) {
        // hi sits half = n + 3 entries after lo.
        size_t half = n + 3;
        for (const char *input : inputs) {
            SCOPED_TRACE(std::string(ff::backendName(backend)) + " n=" +
                         std::to_string(n) + " " + input);
            std::string kind = input;
            std::vector<Fr> tables[4]; // a, b, c, w
            for (std::vector<Fr> &x : tables) {
                x.resize(2 * half);
                for (size_t i = 0; i < x.size(); ++i) {
                    if (kind == "zero")
                        x[i] = Fr::zero();
                    else if (kind == "one")
                        x[i] = Fr::one();
                    else if (kind == "p-1")
                        x[i] = -Fr::one();
                    else if (kind == "raw p-1")
                        x[i] = -r_inv;
                    else if (kind == "below p")
                        x[i] = -Fr::fromUint(1 + rng.nextBounded(4)) * r_inv;
                    else
                        x[i] = Fr::random(rng);
                }
            }
            auto &[a, b, c, w] = tables;
            auto want = referenceGateSums<K>(a, b, c, half, w, n);
            EXPECT_EQ((ff::gateSumsLanes<K>(a.data(), b.data(), c.data(),
                                            half, w.data(), n)),
                      want);
        }
    }
}

TEST(GateSumsKat, MulGateMatchesPlainFpUnderScalar)
{
    checkGateSums<1>(ff::Backend::kScalar);
}

TEST(GateSumsKat, Pow4GateMatchesPlainFpUnderScalar)
{
    checkGateSums<4>(ff::Backend::kScalar);
}

TEST(GateSumsKat, MulGateMatchesPlainFpUnderIfma)
{
    if (!ff::backendAvailable(ff::Backend::kIfma))
        GTEST_SKIP() << "this host has no AVX-512 IFMA";
    checkGateSums<1>(ff::Backend::kIfma);
}

TEST(GateSumsKat, Pow4GateMatchesPlainFpUnderIfma)
{
    if (!ff::backendAvailable(ff::Backend::kIfma))
        GTEST_SKIP() << "this host has no AVX-512 IFMA";
    checkGateSums<4>(ff::Backend::kIfma);
}

#if defined(__x86_64__) || defined(_M_X64)

/** Lane @p lane of a row-kernel position: five radix-2^52 limbs. */
void
putLane(uint64_t *position, size_t lane, const U256 &v)
{
    for (size_t j = 0; j < ff::detail::kRowLimbs; ++j) {
        size_t bit = 52 * j, word = bit / 64, shift = bit % 64;
        uint64_t x = v.limb[word] >> shift;
        if (shift > 12 && word < 3)
            x |= v.limb[word + 1] << (64 - shift);
        position[ff::detail::kIfmaLanes * j + lane] = x & ff::detail::kMask52;
    }
}

U256
getLane(const uint64_t *position, size_t lane)
{
    U256 v;
    for (size_t j = 0; j < ff::detail::kRowLimbs; ++j) {
        uint64_t x = position[ff::detail::kIfmaLanes * j + lane];
        size_t bit = 52 * j, word = bit / 64, shift = bit % 64;
        v.limb[word] |= x << shift;
        if (shift > 12 && word < 3)
            v.limb[word + 1] |= x >> (64 - shift);
    }
    return v;
}

TEST(RowKernelKat, ReductionAtItsBoundsMatchesSmallDot)
{
    // ifmaMulRows reduces each row sum once, by one quotient estimate.
    // Row 0 takes 255 terms with coefficient 2^32 - 1. Its lanes hold
    // the bound, every value p - 1; an exact multiple of p, values
    // alternating p - 1 and 1 with a final 0 (127 p (2^32 - 1)); an
    // all-zero sum; and random values. Row 1 takes 255 random terms
    // over the same positions. Every lane must equal
    // SmallDot::residue() of the same terms.
    if (!ff::backendAvailable(ff::Backend::kIfma))
        GTEST_SKIP() << "this host has no AVX-512 IFMA";
    namespace d = ff::detail;
    constexpr size_t kTerms = 255;
    constexpr size_t kPos = d::kRowLimbs * d::kIfmaLanes;
    const auto consts = d::makeWideConstants(
        Fr::kModulus.limb[0], Fr::kModulus.limb[1], Fr::kModulus.limb[2],
        Fr::kModulus.limb[3], Fr::kInv);
    uint64_t borrow = 0;
    const U256 p_minus_1 = subBorrow(Fr::kModulus, U256{1}, borrow);
    Rng rng(79);

    std::vector<U256> values(kTerms * d::kIfmaLanes);
    auto value = [&](size_t pos, size_t lane) -> U256 & {
        return values[pos * d::kIfmaLanes + lane];
    };
    for (size_t pos = 0; pos < kTerms; ++pos) {
        value(pos, 0) = p_minus_1;
        value(pos, 1) = pos + 1 == kTerms ? U256{}
                        : pos % 2 == 0    ? p_minus_1
                                          : U256{1};
        value(pos, 2) = U256{};
        for (size_t lane = 3; lane < d::kIfmaLanes; ++lane)
            value(pos, lane) = Fr::random(rng).toU256();
    }
    std::vector<uint64_t> in(kTerms * kPos);
    for (size_t pos = 0; pos < kTerms; ++pos)
        for (size_t lane = 0; lane < d::kIfmaLanes; ++lane)
            putLane(in.data() + pos * kPos, lane, value(pos, lane));

    std::vector<uint32_t> terms; // (col, coeff) pairs
    for (size_t e = 0; e < kTerms; ++e) {
        terms.push_back(static_cast<uint32_t>(e));
        terms.push_back(0xffffffffu);
    }
    for (size_t e = 0; e < kTerms; ++e) {
        terms.push_back(static_cast<uint32_t>(rng.nextBounded(kTerms)));
        terms.push_back(static_cast<uint32_t>(rng.next()));
    }
    const size_t offsets[] = {0, kTerms, 2 * kTerms};
    std::vector<uint64_t> out(2 * kPos);
    d::ifmaMulRows(consts, offsets, terms.data(), 2, in.data(), out.data());

    for (size_t row = 0; row < 2; ++row) {
        for (size_t lane = 0; lane < d::kIfmaLanes; ++lane) {
            Fr::SmallDot want;
            for (size_t e = offsets[row]; e < offsets[row + 1]; ++e)
                want.add(value(terms[2 * e], lane), terms[2 * e + 1]);
            EXPECT_EQ(getLane(out.data() + row * kPos, lane),
                      want.residue())
                << "row " << row << " lane " << lane;
        }
    }
    EXPECT_EQ(getLane(out.data(), 1), U256{}) << "an exact multiple of p";
    EXPECT_EQ(getLane(out.data(), 2), U256{}) << "the all-zero sum";
}

TEST(GateSumsKat, IfmaLanesAreCanonicalAtTheReductionBound)
{
    // One full call, every Montgomery integer p - 1 but c[0]'s, p - 6:
    // lane 0's w * c_lo sum then reduces to 4.01 p before the kernel's
    // four conditional subtractions (found by search; all p - 1
    // reduces to 3.25 p). The lanes are read before FieldBackend.cpp
    // adds them, whose Fp additions could mask a non-canonical lane.
    if (!ff::backendAvailable(ff::Backend::kIfma))
        GTEST_SKIP() << "this host has no AVX-512 IFMA";
    namespace d = ff::detail;
    constexpr size_t kN = d::kGateSumsSpan;
    const Fr r_inv = rInverse<Fr>();
    std::vector<Fr> a(2 * kN, -r_inv), b = a, c = a, w(kN, -r_inv);
    c[0] = -Fr::fromUint(6) * r_inv;
    const auto consts = d::makeWideConstants(
        Fr::kModulus.limb[0], Fr::kModulus.limb[1], Fr::kModulus.limb[2],
        Fr::kModulus.limb[3], Fr::kInv);
    auto limbs = [](const std::vector<Fr> &v) {
        return reinterpret_cast<const uint64_t *>(v.data());
    };
    // K = 1: groups t = 0, 1, 2, then w c_lo and w c_hi.
    std::vector<Fr> lanes(5 * d::kIfmaLanes);
    d::ifmaGateSums<1>(consts, limbs(a), limbs(b), limbs(c), kN, limbs(w),
                       kN, reinterpret_cast<uint64_t *>(lanes.data()));
    for (const Fr &lane : lanes)
        EXPECT_LT(cmp(lane.montRaw(), Fr::kModulus), 0);
    Fr want = Fr::zero();
    for (size_t i = 0; i < kN; i += d::kIfmaLanes)
        want += w[i] * c[i];
    want *= Fr::fromUint(uint64_t{1} << d::kGateSumsCShift).inverse();
    EXPECT_EQ(lanes[3 * d::kIfmaLanes], want);
}

/**
 * One reduction span, 256 rows of 8 columns, every Montgomery integer
 * p - 1 but row 0's in column 0, p - 1 - @p d: column 0 then reduces
 * to just over 4p before the kernel's four conditional subtractions.
 */
template <typename F>
void
checkCombineRowsAtTheReductionBound(uint64_t d)
{
    if (!ff::backendAvailable(ff::Backend::kIfma))
        GTEST_SKIP() << "this host has no AVX-512 IFMA";
    BackendGuard guard;
    constexpr size_t kRows = ff::detail::kCombineRowsSpan;
    constexpr size_t kCols = ff::detail::kIfmaLanes;
    const F r_inv = rInverse<F>();
    std::vector<F> rows(kRows * kCols, -r_inv), coeffs(kRows, -r_inv);
    rows[0] = -F::fromUint(d + 1) * r_inv;
    ff::forceBackend(ff::Backend::kIfma);
    std::vector<F> got(kCols);
    ff::combineRowsLanes(rows.data(), kCols, coeffs.data(), kRows,
                         got.data(), kCols);
    for (const F &v : got)
        EXPECT_LT(cmp(v.montRaw(), F::kModulus), 0);
    EXPECT_EQ(got, referenceCombineRows(rows, kCols, coeffs, kCols));
}

TEST(WideFieldKat, CombineRowsIsCanonicalAtTheReductionBound)
{
    // d found by search: column 0 reduces to 4.015 p (Fr) and 4.024 p
    // (Fq); with every integer p - 1 it reduces to 3.25 p (Fr) and
    // 3.34 p (Fq), which three subtractions would already leave below p.
    checkCombineRowsAtTheReductionBound<Fr>(5);
    checkCombineRowsAtTheReductionBound<Fq>(124);
}

#endif // __x86_64__

} // namespace
} // namespace bzk
