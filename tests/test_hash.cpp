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

// The dispatched entry point and, on every host, the portable
// interleaved kernel it falls back to without SHA-NI.
TEST(Sha256, CompressBlocks4MatchesScalar)
{
    uint8_t blocks[4 * 64];
    for (size_t i = 0; i < sizeof(blocks); ++i)
        blocks[i] = static_cast<uint8_t>(i * 31 + 7);
    for (auto kernel :
         {&Sha256::compressBlocks4, &hash::detail::compressBlocks4Portable}) {
        Digest out[4];
        kernel(blocks, out);
        for (size_t lane = 0; lane < 4; ++lane) {
            Digest ref = Sha256::compressBlock(
                std::span<const uint8_t, 64>(blocks + 64 * lane, 64));
            EXPECT_EQ(out[lane], ref) << "lane " << lane;
        }
    }
}

TEST(Sha256, CompressBlocks8MatchesScalar)
{
    uint8_t blocks[8 * 64];
    for (size_t i = 0; i < sizeof(blocks); ++i)
        blocks[i] = static_cast<uint8_t>(i * 131 + 17);
    for (auto kernel :
         {&Sha256::compressBlocks8, &hash::detail::compressBlocks8Portable}) {
        Digest out[8];
        kernel(blocks, out);
        for (size_t lane = 0; lane < 8; ++lane) {
            Digest ref = Sha256::compressBlock(
                std::span<const uint8_t, 64>(blocks + 64 * lane, 64));
            EXPECT_EQ(out[lane], ref) << "lane " << lane;
        }
    }
}

TEST(Sha256, CompressBlocks4KnownAnswer)
{
    // Lane 0 carries the FIPS 180-4 one-block padded message for "abc";
    // the multi-way path must reproduce the canonical digest exactly.
    uint8_t blocks[4 * 64] = {0};
    blocks[0] = 'a';
    blocks[1] = 'b';
    blocks[2] = 'c';
    blocks[3] = 0x80;
    blocks[63] = 24; // bit length
    for (auto kernel :
         {&Sha256::compressBlocks4, &hash::detail::compressBlocks4Portable}) {
        Digest out[4];
        kernel(blocks, out);
        EXPECT_EQ(out[0].toHex(),
                  "ba7816bf8f01cfea414140de5dae2223"
                  "b00361a396177a9cb410ff61f20015ad");
    }
}

TEST(Sha256, HashPairsMatchesHashPairForAllLaneWidths)
{
    // 21 pairs = two 8-wide groups, one 4-wide group, one scalar pair:
    // every code path in the multi-way layer hasher.
    std::vector<Digest> children(42);
    for (size_t i = 0; i < children.size(); ++i)
        children[i] = digestOfString("child" + std::to_string(i));
    std::vector<Digest> out(21);
    Sha256::hashPairs(children.data(), out.size(), out.data());
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], Sha256::hashPair(children[2 * i],
                                           children[2 * i + 1]))
            << "pair " << i;
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
        uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                             0xa54ff53a, 0x510e527f, 0x9b05688c,
                             0x1f83d9ab, 0x5be0cd19};
        kernel_(state, buf.data(), buf.size() / 64);
        Digest d;
        for (int i = 0; i < 8; ++i)
            for (int j = 0; j < 4; ++j)
                d.bytes[4 * i + j] =
                    static_cast<uint8_t>(state[i] >> (24 - 8 * j));
        return d.toHex();
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
