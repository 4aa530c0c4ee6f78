/**
 * @file
 * Tests for SHA-256 (against FIPS 180-4 vectors, through every block
 * kernel the host can run) and the Fiat-Shamir transcript.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ff/Fields.h"
#include "hash/Sha256.h"
#include "hash/Sha256Kernels.h"
#include "hash/Transcript.h"
#include "util/Rng.h"

namespace bzk {
namespace {

Digest
digestOfString(const std::string &s)
{
    return Sha256::digest(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t *>(s.data()), s.size()));
}

TEST(Sha256, EmptyVector)
{
    EXPECT_EQ(digestOfString("").toHex(),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(digestOfString("abc").toHex(),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(
        digestOfString(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
            .toHex(),
        "248d6a61d20638b8e5c026930c3e6039"
        "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 h;
    std::vector<uint8_t> chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        h.update(chunk);
    EXPECT_EQ(h.finalize().toHex(),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    std::string msg = "the quick brown fox jumps over the lazy dog";
    for (size_t split = 0; split <= msg.size(); ++split) {
        Sha256 h;
        h.update(std::span<const uint8_t>(
            reinterpret_cast<const uint8_t *>(msg.data()), split));
        h.update(std::span<const uint8_t>(
            reinterpret_cast<const uint8_t *>(msg.data()) + split,
            msg.size() - split));
        EXPECT_EQ(h.finalize(), digestOfString(msg)) << "split " << split;
    }
}

TEST(Sha256, ExactBlockBoundary)
{
    std::string msg(64, 'x');
    std::string msg2(128, 'x');
    EXPECT_NE(digestOfString(msg), digestOfString(msg2));
    // Incremental across the boundary matches one-shot.
    Sha256 h;
    h.update(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t *>(msg2.data()), 64));
    h.update(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t *>(msg2.data()) + 64, 64));
    EXPECT_EQ(h.finalize(), digestOfString(msg2));
}

TEST(Sha256, CompressBlockDiffersFromPaddedDigest)
{
    uint8_t block[64] = {0};
    Digest raw = Sha256::compressBlock(std::span<const uint8_t, 64>(block));
    Digest padded = Sha256::digest(std::span<const uint8_t>(block, 64));
    EXPECT_NE(raw, padded);
}

TEST(Sha256, HashPairDeterministicAndOrderSensitive)
{
    Digest a = digestOfString("left");
    Digest b = digestOfString("right");
    EXPECT_EQ(Sha256::hashPair(a, b), Sha256::hashPair(a, b));
    EXPECT_NE(Sha256::hashPair(a, b), Sha256::hashPair(b, a));
}

TEST(Sha256, HashPairsMatchesHashPairForAllLaneWidths)
{
    // 37 pairs = two 16-lane groups and a tail of 5 single compressions:
    // every code path in the layer hasher.
    std::vector<Digest> children(74);
    for (size_t i = 0; i < children.size(); ++i)
        children[i] = digestOfString("child" + std::to_string(i));
    std::vector<Digest> out(37);
    Sha256::hashPairs(children.data(), out.size(), out.data());
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], Sha256::hashPair(children[2 * i],
                                           children[2 * i + 1]))
            << "pair " << i;
}

/**
 * @p kernel over @p n_blocks blocks from SHA-256's IV, as a digest
 * (compressPortable unless given).
 */
Digest
digestFromIv(const uint8_t *blocks, size_t n_blocks,
             hash::detail::CompressFn kernel = hash::detail::compressPortable)
{
    uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    kernel(state, blocks, n_blocks);
    Digest d;
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 4; ++j)
            d.bytes[4 * i + j] =
                static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    return d;
}

TEST(Sha256, CompressBlocksMatchesPortableAtEverySize)
{
    // Below, at and around the 16-lane group: no group, one tail block,
    // groups with and without a tail. The slot after the last block must
    // stay untouched.
    Rng rng(0xb10c5);
    for (size_t n : {0u, 1u, 15u, 16u, 17u, 33u}) {
        std::vector<uint8_t> blocks(64 * n);
        for (auto &b : blocks)
            b = static_cast<uint8_t>(rng.next());
        std::vector<Digest> out(n + 1);
        Digest sentinel = digestOfString("sentinel");
        out[n] = sentinel;
        Sha256::compressBlocks(blocks.data(), n, out.data());
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(out[i], digestFromIv(blocks.data() + 64 * i, 1))
                << "n=" << n << " block " << i;
        EXPECT_EQ(out[n], sentinel) << "n=" << n;
    }
}

/**
 * The 16-lane kernel against compressPortable, lane by lane, through
 * both loaders. Skipped where the CPU lacks AVX-512F/BW: the
 * dispatcher never selects the kernel there.
 */
class Sha256Lanes16Test : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!hash::detail::avx512Supported())
            GTEST_SKIP() << "CPU lacks AVX-512F/BW";
    }

    /** Lane @p lane's state words equal @p want. */
    static void
    expectLane(const hash::detail::Lanes16 &lanes, size_t lane,
               const uint32_t want[8], const std::string &what)
    {
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(lanes.word[i][lane], want[i])
                << what << " lane " << lane << " word " << i;
    }
};

TEST_F(Sha256Lanes16Test, AbcBlockInEachLane)
{
    // The FIPS 180-4 one-block padded "abc" in each lane in turn, the
    // other lanes holding filler that must hash as the portable code
    // hashes it.
    for (size_t lane = 0; lane < hash::detail::kShaLanes; ++lane) {
        std::vector<uint8_t> blocks(64 * hash::detail::kShaLanes);
        for (size_t i = 0; i < blocks.size(); ++i)
            blocks[i] = static_cast<uint8_t>(i * 37 + 11);
        uint8_t *abc = blocks.data() + 64 * lane;
        std::memset(abc, 0, 64);
        abc[0] = 'a';
        abc[1] = 'b';
        abc[2] = 'c';
        abc[3] = 0x80;
        abc[63] = 24; // bit length
        hash::detail::Lanes16 lanes;
        hash::detail::initLanes16(lanes);
        hash::detail::compress16Blocks(lanes, blocks.data());
        Digest out[hash::detail::kShaLanes];
        hash::detail::lanes16Digests(lanes, out);
        EXPECT_EQ(out[lane].toHex(), "ba7816bf8f01cfea414140de5dae2223"
                                     "b00361a396177a9cb410ff61f20015ad")
            << "lane " << lane;
        for (size_t j = 0; j < hash::detail::kShaLanes; ++j)
            EXPECT_EQ(out[j], digestFromIv(blocks.data() + 64 * j, 1))
                << "abc in lane " << lane << ", lane " << j;
    }
}

TEST_F(Sha256Lanes16Test, MatchesPortableOnRandomChainedStates)
{
    // 1,600 (state, block) pairs: random states in every lane, not
    // just the IV, chained over 1..4 blocks, through both loaders. The
    // cell loader reads lane j's block as 32 bytes of one row and 32
    // of another, the rows a stride apart.
    Rng rng(0x16a5e);
    constexpr size_t kLanes = hash::detail::kShaLanes;
    for (int trial = 0; trial < 40; ++trial) {
        bool cells = trial % 2;
        size_t n_blocks = 1 + trial % 4;
        hash::detail::Lanes16 lanes;
        uint32_t ref[kLanes][8];
        for (size_t j = 0; j < kLanes; ++j)
            for (int i = 0; i < 8; ++i)
                ref[j][i] = lanes.word[i][j] =
                    static_cast<uint32_t>(rng.next());
        for (size_t step = 0; step < n_blocks; ++step) {
            std::vector<uint8_t> bytes(64 * kLanes + 96);
            for (auto &b : bytes)
                b = static_cast<uint8_t>(rng.next());
            uint8_t block[64];
            if (cells) {
                const uint8_t *top = bytes.data();
                const uint8_t *bottom = top + 32 * kLanes + 96;
                hash::detail::compress16Cells(lanes, top, bottom);
                for (size_t j = 0; j < kLanes; ++j) {
                    std::memcpy(block, top + 32 * j, 32);
                    std::memcpy(block + 32, bottom + 32 * j, 32);
                    hash::detail::compressPortable(ref[j], block, 1);
                }
            } else {
                hash::detail::compress16Blocks(lanes, bytes.data());
                for (size_t j = 0; j < kLanes; ++j)
                    hash::detail::compressPortable(
                        ref[j], bytes.data() + 64 * j, 1);
            }
        }
        for (size_t j = 0; j < kLanes; ++j)
            expectLane(lanes, j, ref[j],
                       "trial " + std::to_string(trial));
        if (HasFailure())
            return;
    }
}

/**
 * Each block kernel on its own, with the padding done here: the
 * portable kernel always, SHA-NI only where the CPU has it (the
 * dispatcher never selects it elsewhere).
 */
class Sha256KernelTest : public ::testing::TestWithParam<bool>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() && !hash::detail::shaNiSupported())
            GTEST_SKIP() << "CPU lacks the SHA extensions";
        kernel_ = GetParam() ? hash::detail::compressShaNi
                             : hash::detail::compressPortable;
    }

    /** FIPS 180-4 padded digest of @p msg through kernel_ only. */
    std::string
    digestHex(const std::string &msg) const
    {
        std::vector<uint8_t> buf(msg.begin(), msg.end());
        uint64_t bits = uint64_t{8} * msg.size();
        buf.push_back(0x80);
        while (buf.size() % 64 != 56)
            buf.push_back(0);
        for (int i = 7; i >= 0; --i)
            buf.push_back(static_cast<uint8_t>(bits >> (8 * i)));
        return digestFromIv(buf.data(), buf.size() / 64, kernel_).toHex();
    }

    hash::detail::CompressFn kernel_ = nullptr;
};

TEST_P(Sha256KernelTest, Fips180Vectors)
{
    EXPECT_EQ(digestHex(""), "e3b0c44298fc1c149afbf4c8996fb924"
                             "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(digestHex("abc"), "ba7816bf8f01cfea414140de5dae2223"
                                "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        digestHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039"
        "a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(digestHex(std::string(1000000, 'a')),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256KernelTest, MatchesPortableOnRandomStatesAndBlocks)
{
    // Arbitrary chaining states, not just the IV, and runs of 1..4
    // blocks so the multi-block loop carries state between blocks.
    Rng rng(0x5a256);
    for (int trial = 0; trial < 10000; ++trial) {
        size_t n_blocks = 1 + trial % 4;
        uint32_t state[8], ref[8];
        for (auto &w : state)
            w = static_cast<uint32_t>(rng.next());
        std::memcpy(ref, state, sizeof(state));
        std::vector<uint8_t> blocks(64 * n_blocks);
        for (auto &b : blocks)
            b = static_cast<uint8_t>(rng.next());
        kernel_(state, blocks.data(), n_blocks);
        hash::detail::compressPortable(ref, blocks.data(), n_blocks);
        ASSERT_EQ(std::memcmp(state, ref, sizeof(state)), 0)
            << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha256KernelTest, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "ShaNi" : "Portable";
                         });

TEST(Sha256, DispatchFollowsCpuid)
{
    EXPECT_EQ(hash::detail::activeCompress(),
              hash::detail::shaNiSupported()
                  ? hash::detail::compressShaNi
                  : hash::detail::compressPortable);
}

TEST(Transcript, DeterministicReplay)
{
    Transcript t1("test"), t2("test");
    uint8_t msg[3] = {1, 2, 3};
    t1.absorb("m", msg);
    t2.absorb("m", msg);
    EXPECT_EQ(t1.challengeDigest("c"), t2.challengeDigest("c"));
    EXPECT_EQ(t1.challengeField<Fr>("f"), t2.challengeField<Fr>("f"));
}

TEST(Transcript, DomainSeparation)
{
    Transcript t1("a"), t2("b");
    EXPECT_NE(t1.challengeDigest("c"), t2.challengeDigest("c"));
}

TEST(Transcript, AbsorbChangesChallenges)
{
    Transcript t1("test"), t2("test");
    uint8_t msg[1] = {7};
    t1.absorb("m", msg);
    EXPECT_NE(t1.challengeDigest("c"), t2.challengeDigest("c"));
}

TEST(Transcript, SuccessiveChallengesDiffer)
{
    Transcript t("test");
    EXPECT_NE(t.challengeDigest("c"), t.challengeDigest("c"));
}

TEST(Transcript, ChallengeIndexInBound)
{
    Transcript t("test");
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(t.challengeIndex("i", 37), 37u);
}

TEST(Transcript, DistinctIndicesAreDistinct)
{
    Transcript t("test");
    auto idx = t.challengeDistinctIndices("i", 20, 32);
    EXPECT_EQ(idx.size(), 20u);
    std::sort(idx.begin(), idx.end());
    EXPECT_EQ(std::unique(idx.begin(), idx.end()), idx.end());
    for (uint64_t v : idx)
        EXPECT_LT(v, 32u);
}

TEST(Transcript, FieldChallengeCanonical)
{
    Transcript t("test");
    Fr c = t.challengeField<Fr>("f");
    uint8_t buf[32];
    c.toBytes(buf);
    EXPECT_EQ(Fr::fromBytes(buf), c);
}

TEST(Transcript, LabelsSeparateDomains)
{
    // Same data under different labels must diverge.
    Transcript t1("test"), t2("test");
    uint8_t msg[2] = {9, 9};
    t1.absorb("a", msg);
    t2.absorb("b", msg);
    EXPECT_NE(t1.challengeDigest("c"), t2.challengeDigest("c"));
}

TEST(Transcript, ChallengeLabelMatters)
{
    Transcript t1("test"), t2("test");
    EXPECT_NE(t1.challengeDigest("x"), t2.challengeDigest("y"));
}

TEST(Transcript, ChallengeDependsOnEarlierChallenges)
{
    // The transcript ratchets: absorbing the same message after different
    // numbers of challenges produces different states.
    Transcript t1("test"), t2("test");
    (void)t1.challengeDigest("c");
    uint8_t msg[1] = {1};
    t1.absorb("m", msg);
    t2.absorb("m", msg);
    EXPECT_NE(t1.challengeDigest("x"), t2.challengeDigest("x"));
}

} // namespace
} // namespace bzk
