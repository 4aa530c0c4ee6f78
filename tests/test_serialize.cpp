/**
 * @file
 * Wire-format tests: byte round trips for every proof type, golden
 * proof bytes, parameterized corruption/truncation sweeps (a corrupted
 * proof must never deserialize-and-verify), and decode allocation that
 * stays in proportion to the input.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdlib>
#include <cstring>

#include "circuit/Circuit.h"
#include "core/FullSnark.h"
#include "core/HighDegreeSnark.h"
#include "core/Serialize.h"
#include "core/Snark.h"
#include "exec/ExecContext.h"
#include "ff/Fields.h"
#include "gkr/Gkr.h"
#include "gkr/LayeredCircuit.h"
#include "hash/Sha256.h"
#include "journal/Record.h"

namespace bzk {
namespace {

struct Fixture
{
    Snark<Fr> snark{8, 99};
    SnarkProof<Fr> proof;
    FullSnark<Fr> *full = nullptr;
    FullSnarkProof<Fr> full_proof;
    std::vector<Fr> inputs;
    HighDegreeSnark<Fr> hdg{8, 99};
    HighDegreeProof<Fr> hdg_proof;

    Fixture()
    {
        Rng rng(1);
        // Table-commitment proof.
        auto c = randomCircuit<Fr>(200, 8, rng);
        std::vector<Fr> witness(c.numWitnesses());
        for (auto &w : witness)
            w = Fr::random(rng);
        auto asg = c.evaluate({}, witness);
        proof = snark.prove(c.buildTables(asg), {});

        // Wiring-sound proof.
        Circuit<Fr> fc;
        std::vector<WireId> pool{fc.addInput(), fc.addWitness(),
                                 fc.addWitness()};
        while (fc.numGates() < 150) {
            WireId l = pool[rng.nextBounded(pool.size())];
            WireId r = pool[rng.nextBounded(pool.size())];
            pool.push_back((rng.next() & 1) ? fc.mul(l, r)
                                            : fc.add(l, r));
        }
        inputs = {Fr::fromUint(5)};
        std::vector<Fr> fw(fc.numWitnesses());
        for (auto &w : fw)
            w = Fr::random(rng);
        auto fasg = fc.evaluate(inputs, fw);
        full = new FullSnark<Fr>(buildR1cs(fc), 77);
        full_proof = full->prove(inputs, fasg);

        // High-degree gate proof.
        Rng hdg_rng(2);
        hdg_proof = hdg.prove(highDegreeInstance<Fr>(8, hdg_rng), {});
    }

    ~Fixture() { delete full; }
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

// Proof-byte goldens: the SHA-256 of one fixed-seed proof's encoding
// per proof system. A prover refactor must leave them unchanged under
// every field backend, with IFMA on or off, and for any thread count.

TEST(ProofGolden, HighDegreeSnarkN8)
{
    Rng rng(2024);
    auto tables = highDegreeInstance<Fr>(8, rng);
    HighDegreeSnark<Fr> snark(8, 2024);
    exec::ExecContext exec;
    snark.setExec(&exec);
    auto bytes = serializeHighDegreeProof(snark.prove(tables, {}));
    EXPECT_EQ(Sha256::digest(bytes).toHex(),
              "10f26525e14450e07f91b9e37b800e108483d49d305aa47001b9f2edb8e2"
              "d609");
}

TEST(ProofGolden, FullSnark)
{
    auto bytes = serializeFullProof(fixture().full_proof);
    EXPECT_EQ(Sha256::digest(bytes).toHex(),
              "4218721e12cf9f9c1958719f8a4aeca19db60ab53e4f118132adb7fffb6c"
              "6505");
}

TEST(ProofGolden, Gkr)
{
    // 2^13 input wires: the first rounds of the bottom layer sum over
    // several reduction chunks.
    Rng rng(2024);
    auto c = randomLayeredCircuit<Fr>(13, 3, 6000, rng);
    std::vector<Fr> inputs(size_t{1} << 13);
    for (auto &x : inputs)
        x = Fr::random(rng);
    Gkr<Fr> gkr(c);
    Transcript pt("golden-gkr");
    auto proof = gkr.prove(inputs, pt);
    Transcript vt("golden-gkr");
    ASSERT_TRUE(gkr.verify(proof, inputs, vt));
    EXPECT_EQ(Sha256::digest(serializeGkrProof(proof)).toHex(),
              "43409632763b751eed280b33a8374001dde4aa5f58c6079d7e47393d525a"
              "2a9e");
}

TEST(Serialize, SnarkProofRoundTrip)
{
    auto &f = fixture();
    auto bytes = serializeProof(f.proof);
    EXPECT_GT(bytes.size(), 1000u);
    auto back = deserializeProof<Fr>(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(f.snark.verify(*back, {}));
    // Re-serialization is byte-identical (canonical encoding).
    EXPECT_EQ(serializeProof(*back), bytes);
}

TEST(Serialize, FullProofRoundTrip)
{
    auto &f = fixture();
    auto bytes = serializeFullProof(f.full_proof);
    auto back = deserializeFullProof<Fr>(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(f.full->verify(*back, f.inputs));
    EXPECT_EQ(serializeFullProof(*back), bytes);
}

TEST(Serialize, WrongTagRejected)
{
    auto &f = fixture();
    auto bytes = serializeProof(f.proof);
    bytes[0] = 0x7f;
    EXPECT_FALSE(deserializeProof<Fr>(bytes).has_value());
    // A Snark proof is not a FullSnark proof.
    auto bytes2 = serializeProof(f.proof);
    EXPECT_FALSE(deserializeFullProof<Fr>(bytes2).has_value());
}

TEST(Serialize, HighDegreeProofRoundTrip)
{
    Rng rng(3);
    auto tables = highDegreeInstance<Fr>(6, rng);
    HighDegreeSnark<Fr> snark(6, 99);
    auto proof = snark.prove(tables, {});
    auto bytes = serializeHighDegreeProof(proof);
    EXPECT_EQ(bytes[0], 0x04); // its own tag, distinct from Snark's
    auto back = deserializeHighDegreeProof<Fr>(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(snark.verify(*back, {}));
    // Canonical: re-serialization is byte-identical.
    EXPECT_EQ(serializeHighDegreeProof(*back), bytes);
    // The tag keeps the codecs from crossing: a high-degree blob is
    // not a table-commit proof and vice versa.
    EXPECT_FALSE(deserializeProof<Fr>(bytes).has_value());
    auto &f = fixture();
    EXPECT_FALSE(
        deserializeHighDegreeProof<Fr>(serializeProof(f.proof))
            .has_value());
}

TEST(Serialize, TrailingGarbageRejected)
{
    auto &f = fixture();
    auto bytes = serializeProof(f.proof);
    bytes.push_back(0);
    EXPECT_FALSE(deserializeProof<Fr>(bytes).has_value());
}

TEST(Serialize, EmptyInputRejected)
{
    EXPECT_FALSE(
        deserializeProof<Fr>(std::span<const uint8_t>{}).has_value());
    EXPECT_FALSE(
        deserializeFullProof<Fr>(std::span<const uint8_t>{}).has_value());
}

/**
 * Offset of va in a gate proof's encoding: after the tag, the three
 * (root, n_vars) commitments and the length-prefixed rounds.
 */
template <typename F, typename Gate>
size_t
vaOffset(const GateProof<F, Gate> &proof)
{
    size_t offset = 1 + 3 * (32 + 1) + 4;
    for (const auto &g : proof.gate_sc.rounds)
        offset += 4 + g.size() * F::kNumBytes;
    return offset;
}

TEST(Serialize, NonCanonicalFrElementRejected)
{
    // va re-encoded as the integer va + p (< 2^256 for a 254-bit p)
    // is the same field element; accepting it would give one proof two
    // byte strings.
    auto &f = fixture();
    auto bytes = serializeProof(f.proof);
    size_t at = vaOffset(f.proof);
    uint8_t want[32];
    f.proof.va.toBytes(want);
    ASSERT_EQ(std::memcmp(bytes.data() + at, want, 32), 0);
    uint64_t carry = 0;
    U256 alias = addCarry(f.proof.va.toU256(), Fr::kModulus, carry);
    ASSERT_EQ(carry, 0u);
    u256ToBytes(alias, std::span<uint8_t, 32>(bytes.data() + at, 32));
    EXPECT_FALSE(deserializeProof<Fr>(bytes).has_value());
}

/** Peak resident set of this process, KiB (Linux ru_maxrss). */
long
peakRssKiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

TEST(SerializeDeathTest, HostileLengthAllocatesInProportionToInput)
{
    // 204 bytes: a table-commit proof header, no sum-check rounds, the
    // three claimed openings, then an eval row claiming 2^24 entries
    // (512 MiB of Fr) that the blob cannot hold.
    ByteWriter w;
    w.u8(MulGate::kProofTag);
    for (int i = 0; i < 3; ++i) {
        w.digest(Digest{});
        w.u8(8);
    }
    w.u32(0);
    for (int i = 0; i < 3; ++i)
        w.field(Fr::zero());
    w.u32(uint32_t{1} << 24);
    auto blob = w.take();
    ASSERT_EQ(blob.size(), 204u);

    // A fresh child process, so the peak it reads is the decode's own.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            long before = peakRssKiB();
            bool decoded = deserializeProof<Fr>(blob).has_value();
            long growth_mib = (peakRssKiB() - before) / 1024;
            std::exit(!decoded && growth_mib < 64 ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(Serialize, HostileLengthPrefixRejected)
{
    auto &f = fixture();
    auto bytes = serializeProof(f.proof);
    // The first u32 length prefix sits after tag + 3*(32+1) bytes; blow
    // it up to a hostile value.
    size_t off = 1 + 3 * 33;
    bytes[off] = 0xff;
    bytes[off + 1] = 0xff;
    bytes[off + 2] = 0xff;
    bytes[off + 3] = 0x7f;
    EXPECT_FALSE(deserializeProof<Fr>(bytes).has_value());
}

TEST(Serialize, GkrProofRoundTrip)
{
    Rng rng(2);
    auto c = randomLayeredCircuit<Fr>(4, 3, 12, rng);
    std::vector<Fr> inputs(16);
    for (auto &x : inputs)
        x = Fr::random(rng);
    Gkr<Fr> gkr(c);
    Transcript pt("ser-gkr");
    auto proof = gkr.prove(inputs, pt);

    auto bytes = serializeGkrProof(proof);
    auto back = deserializeGkrProof<Fr>(bytes);
    ASSERT_TRUE(back.has_value());
    Transcript vt("ser-gkr");
    EXPECT_TRUE(gkr.verify(*back, inputs, vt));
    EXPECT_EQ(serializeGkrProof(*back), bytes);
    // Cross-type confusion rejected.
    EXPECT_FALSE(deserializeProof<Fr>(bytes).has_value());
}

TEST(Serialize, GkrProofCorruptionRejected)
{
    Rng rng(3);
    auto c = randomLayeredCircuit<Fr>(3, 2, 8, rng);
    std::vector<Fr> inputs(8);
    for (auto &x : inputs)
        x = Fr::random(rng);
    Gkr<Fr> gkr(c);
    Transcript pt("ser-gkr");
    auto proof = gkr.prove(inputs, pt);
    auto bytes = serializeGkrProof(proof);
    for (size_t pos : {size_t{8}, bytes.size() / 2, bytes.size() - 3}) {
        auto bad = bytes;
        bad[pos] ^= 0x40;
        auto back = deserializeGkrProof<Fr>(bad);
        if (back.has_value()) {
            Transcript vt("ser-gkr");
            EXPECT_FALSE(gkr.verify(*back, inputs, vt)) << pos;
        }
    }
}

/** Corruption sweep: flip one byte at a parameterized blob position. */
class CorruptionSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CorruptionSweep, CorruptedSnarkProofNeverAccepted)
{
    auto &f = fixture();
    auto bytes = serializeProof(f.proof);
    size_t pos = static_cast<size_t>(GetParam()) * (bytes.size() - 1) / 15;
    if (pos == 0)
        pos = 1; // keep the tag; tag corruption is covered elsewhere
    bytes[pos] ^= 0x55;
    auto back = deserializeProof<Fr>(bytes);
    if (back.has_value()) {
        // Structure survived: the cryptographic checks must not.
        EXPECT_FALSE(f.snark.verify(*back, {})) << "pos " << pos;
    }
}

TEST_P(CorruptionSweep, CorruptedHighDegreeProofNeverAccepted)
{
    auto &f = fixture();
    auto bytes = serializeHighDegreeProof(f.hdg_proof);
    size_t pos = static_cast<size_t>(GetParam()) * (bytes.size() - 1) / 15;
    if (pos == 0)
        pos = 1;
    bytes[pos] ^= 0x55;
    auto back = deserializeHighDegreeProof<Fr>(bytes);
    if (back.has_value()) {
        EXPECT_FALSE(f.hdg.verify(*back, {})) << "pos " << pos;
    }
}

TEST_P(CorruptionSweep, CorruptedFullProofNeverAccepted)
{
    auto &f = fixture();
    auto bytes = serializeFullProof(f.full_proof);
    size_t pos = static_cast<size_t>(GetParam()) * (bytes.size() - 1) / 15;
    if (pos == 0)
        pos = 1;
    bytes[pos] ^= 0xa3;
    auto back = deserializeFullProof<Fr>(bytes);
    if (back.has_value()) {
        EXPECT_FALSE(f.full->verify(*back, f.inputs)) << "pos " << pos;
    }
}

INSTANTIATE_TEST_SUITE_P(BytePositions, CorruptionSweep,
                         ::testing::Range(0, 16));

/** Truncation sweep: any prefix of a proof must fail to decode. */
class TruncationSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(TruncationSweep, TruncatedProofRejected)
{
    auto &f = fixture();
    auto bytes = serializeProof(f.proof);
    size_t keep = static_cast<size_t>(GetParam()) * bytes.size() / 8;
    bytes.resize(keep);
    EXPECT_FALSE(deserializeProof<Fr>(bytes).has_value())
        << "kept " << keep;
}

TEST_P(TruncationSweep, TruncatedHighDegreeProofRejected)
{
    auto &f = fixture();
    auto bytes = serializeHighDegreeProof(f.hdg_proof);
    size_t keep = static_cast<size_t>(GetParam()) * bytes.size() / 8;
    bytes.resize(keep);
    EXPECT_FALSE(deserializeHighDegreeProof<Fr>(bytes).has_value())
        << "kept " << keep;
}

TEST_P(TruncationSweep, TruncatedFullProofRejected)
{
    auto &f = fixture();
    auto bytes = serializeFullProof(f.full_proof);
    size_t keep = static_cast<size_t>(GetParam()) * bytes.size() / 8;
    bytes.resize(keep);
    EXPECT_FALSE(deserializeFullProof<Fr>(bytes).has_value())
        << "kept " << keep;
}

TEST_P(TruncationSweep, TruncatedGkrProofRejected)
{
    Rng rng(4);
    auto c = randomLayeredCircuit<Fr>(3, 2, 8, rng);
    std::vector<Fr> inputs(8);
    for (auto &x : inputs)
        x = Fr::random(rng);
    Gkr<Fr> gkr(c);
    Transcript pt("ser-gkr");
    auto bytes = serializeGkrProof(gkr.prove(inputs, pt));
    size_t keep = static_cast<size_t>(GetParam()) * bytes.size() / 8;
    bytes.resize(keep);
    EXPECT_FALSE(deserializeGkrProof<Fr>(bytes).has_value())
        << "kept " << keep;
}

INSTANTIATE_TEST_SUITE_P(PrefixLengths, TruncationSweep,
                         ::testing::Range(0, 8));

/**
 * Dense byte-flip sweep: each seed flips a random byte at a random
 * position (and with a random mask), covering positions the 16-step
 * sweep above strides over. The decoded proof must never verify.
 */
class DenseFlipSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DenseFlipSweep, FlippedByteNeverAccepted)
{
    auto &f = fixture();
    Rng rng(GetParam());
    auto bytes = serializeProof(f.proof);
    size_t pos = 1 + rng.nextBounded(bytes.size() - 1);
    uint8_t mask = static_cast<uint8_t>(1 + rng.nextBounded(255));
    bytes[pos] ^= mask;
    auto back = deserializeProof<Fr>(bytes);
    if (back.has_value()) {
        EXPECT_FALSE(f.snark.verify(*back, {}))
            << "pos " << pos << " mask " << unsigned(mask);
    }

    auto full_bytes = serializeFullProof(f.full_proof);
    size_t fpos = 1 + rng.nextBounded(full_bytes.size() - 1);
    full_bytes[fpos] ^= mask;
    auto fback = deserializeFullProof<Fr>(full_bytes);
    if (fback.has_value()) {
        EXPECT_FALSE(f.full->verify(*fback, f.inputs))
            << "pos " << fpos << " mask " << unsigned(mask);
    }

    auto hdg_bytes = serializeHighDegreeProof(f.hdg_proof);
    size_t hpos = 1 + rng.nextBounded(hdg_bytes.size() - 1);
    hdg_bytes[hpos] ^= mask;
    auto hback = deserializeHighDegreeProof<Fr>(hdg_bytes);
    if (hback.has_value()) {
        EXPECT_FALSE(f.hdg.verify(*hback, {}))
            << "pos " << hpos << " mask " << unsigned(mask);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseFlipSweep,
                         ::testing::Range<uint64_t>(500, 540));

/** Random-blob fuzz: arbitrary bytes must never crash or be accepted. */
class RandomBlobFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomBlobFuzz, NeverAccepted)
{
    Rng rng(GetParam());
    size_t len = 1 + rng.nextBounded(4096);
    std::vector<uint8_t> blob(len);
    for (auto &b : blob)
        b = static_cast<uint8_t>(rng.next());
    // Force a real proof tag half the time so parsing goes deeper.
    const uint8_t tags[] = {MulGate::kProofTag, detail::kFullSnarkProofTag,
                            detail::kGkrProofTag, Pow4Gate::kProofTag};
    if (rng.next() & 1)
        blob[0] = tags[rng.nextBounded(4)];
    auto &f = fixture();
    auto p1 = deserializeProof<Fr>(blob);
    if (p1.has_value()) {
        EXPECT_FALSE(f.snark.verify(*p1, {}));
    }
    auto p2 = deserializeFullProof<Fr>(blob);
    if (p2.has_value()) {
        EXPECT_FALSE(f.full->verify(*p2, f.inputs));
    }
    auto p3 = deserializeHighDegreeProof<Fr>(blob);
    if (p3.has_value()) {
        EXPECT_FALSE(f.hdg.verify(*p3, {}));
    }
    (void)deserializeGkrProof<Fr>(blob);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBlobFuzz,
                         ::testing::Range<uint64_t>(100, 130));

// --- journal record wire formats ------------------------------------

TEST(JournalRecords, SegmentHeaderRoundTrip)
{
    journal::SegmentHeader header{0x0123456789ABCDEFull};
    auto bytes = journal::encodeSegmentHeader(header);
    ASSERT_EQ(bytes.size(), journal::kSegmentHeaderBytes);
    auto decoded = journal::decodeSegmentHeader(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, header);
}

TEST(JournalRecords, SegmentHeaderRejectsBadMagicVersionCrc)
{
    auto bytes = journal::encodeSegmentHeader({42});
    auto corrupt = bytes;
    corrupt[0] ^= 0xFF; // magic
    EXPECT_FALSE(journal::decodeSegmentHeader(corrupt).has_value());
    corrupt = bytes;
    corrupt[4] = journal::kJournalVersion + 1; // version
    EXPECT_FALSE(journal::decodeSegmentHeader(corrupt).has_value());
    corrupt = bytes;
    corrupt[8] ^= 0x01; // index byte, breaks the CRC
    EXPECT_FALSE(journal::decodeSegmentHeader(corrupt).has_value());
    // Short reads never decode.
    EXPECT_FALSE(journal::decodeSegmentHeader(
                     std::span<const uint8_t>(bytes.data(),
                                              bytes.size() - 1))
                     .has_value());
}

TEST(JournalRecords, TaskRecordRoundTrip)
{
    journal::TaskRecord task;
    task.task_id = 0xFEDCBA9876543210ull;
    task.n_vars = 18;
    task.priority = -5; // negative priorities must survive the trip
    task.seed = 2024;
    auto body = journal::encodeTaskRecord(task);
    EXPECT_EQ(journal::recordType(body), journal::RecordType::Task);
    auto decoded = journal::decodeTaskRecord(body);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, task);
}

TEST(JournalRecords, CompletionRecordRoundTrip)
{
    journal::CompletionRecord completion;
    completion.task_id = 7;
    completion.n_vars = 10;
    completion.seed = 99;
    completion.proof.resize(4097);
    Rng rng(3);
    for (auto &b : completion.proof)
        b = static_cast<uint8_t>(rng.next());
    auto body = journal::encodeCompletionRecord(completion);
    EXPECT_EQ(journal::recordType(body),
              journal::RecordType::Completion);
    auto decoded = journal::decodeCompletionRecord(body);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, completion);

    // Empty proofs (ack-only completions) round-trip too.
    completion.proof.clear();
    decoded = journal::decodeCompletionRecord(
        journal::encodeCompletionRecord(completion));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, completion);
}

TEST(JournalRecords, DecodersRejectBadVersionAndType)
{
    auto task_body = journal::encodeTaskRecord({1, 10, 0, 2});
    auto completion_body =
        journal::encodeCompletionRecord({1, 10, 2, {0xAB}});

    // A future format version must not decode as the current one.
    auto bumped = task_body;
    bumped[1] = journal::kTaskRecordVersion + 1;
    EXPECT_FALSE(journal::decodeTaskRecord(bumped).has_value());
    journal::TaskRecord out;
    EXPECT_EQ(journal::decodeTaskRecordChecked(bumped, &out),
              journal::RecordDecodeError::BadVersion);
    bumped = completion_body;
    bumped[1] = journal::kJournalVersion + 1;
    EXPECT_FALSE(journal::decodeCompletionRecord(bumped).has_value());

    // Cross-typed decodes fail: a task body is not a completion.
    EXPECT_FALSE(journal::decodeCompletionRecord(task_body).has_value());
    EXPECT_FALSE(journal::decodeTaskRecord(completion_body).has_value());
    EXPECT_EQ(journal::decodeTaskRecordChecked(completion_body, &out),
              journal::RecordDecodeError::BadType);
    EXPECT_FALSE(
        journal::recordType(std::vector<uint8_t>{0x7F}).has_value());
    EXPECT_FALSE(
        journal::recordType(std::span<const uint8_t>{}).has_value());
}

TEST(JournalRecords, TaskRecordCarriesProtocolKind)
{
    journal::TaskRecord task;
    task.task_id = 31;
    task.n_vars = 9;
    task.priority = 1;
    task.seed = 77;
    task.kind = sched::ProtocolKind::HighDegreeGate;
    auto body = journal::encodeTaskRecord(task);
    EXPECT_EQ(body[1], journal::kTaskRecordVersion);
    auto decoded = journal::decodeTaskRecord(body);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->kind, sched::ProtocolKind::HighDegreeGate);
    EXPECT_EQ(*decoded, task);
}

TEST(JournalRecords, V1TaskRecordDecodesAsLegacyKind)
{
    // A version-1 body as written before protocol kinds existed:
    // type, version=1, task_id, n_vars, priority, seed — no kind byte.
    ByteWriter w;
    w.u8(static_cast<uint8_t>(journal::RecordType::Task));
    w.u8(1);
    w.u64(42);
    w.u32(11);
    w.u32(static_cast<uint32_t>(-3));
    w.u64(2024);
    auto v1_body = w.take();
    ASSERT_EQ(v1_body.size(), 26u);

    auto decoded = journal::decodeTaskRecord(v1_body);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->task_id, 42u);
    EXPECT_EQ(decoded->n_vars, 11u);
    EXPECT_EQ(decoded->priority, -3);
    EXPECT_EQ(decoded->seed, 2024u);
    EXPECT_EQ(decoded->kind, sched::ProtocolKind::TableCommit);

    // A v1 body with a stray trailing byte is not silently v2.
    auto padded = v1_body;
    padded.push_back(0);
    journal::TaskRecord out;
    EXPECT_EQ(journal::decodeTaskRecordChecked(padded, &out),
              journal::RecordDecodeError::Malformed);
}

TEST(JournalRecords, UnknownProtocolKindIsTypedError)
{
    auto body = journal::encodeTaskRecord(
        {5, 10, 0, 2, sched::ProtocolKind::HighDegreeGate});
    body.back() = 0xEE; // a kind this build does not know
    EXPECT_FALSE(journal::decodeTaskRecord(body).has_value());
    journal::TaskRecord out;
    out.task_id = 999;
    EXPECT_EQ(journal::decodeTaskRecordChecked(body, &out),
              journal::RecordDecodeError::UnknownKind);
    EXPECT_EQ(out.task_id, 999u); // output untouched on error
    EXPECT_STREQ(journal::recordDecodeErrorName(
                     journal::RecordDecodeError::UnknownKind),
                 "unknown-kind");
}

TEST(JournalRecords, DecodersRejectTruncationAndTrailingBytes)
{
    auto body = journal::encodeTaskRecord({9, 12, 1, 7});
    for (size_t len = 0; len < body.size(); ++len)
        EXPECT_FALSE(journal::decodeTaskRecord(
                         std::span<const uint8_t>(body.data(), len))
                         .has_value())
            << "prefix " << len;
    auto padded = body;
    padded.push_back(0);
    EXPECT_FALSE(journal::decodeTaskRecord(padded).has_value());

    // Completion whose declared proof length overruns the body.
    journal::CompletionRecord completion{3, 10, 5, {1, 2, 3, 4}};
    auto cbody = journal::encodeCompletionRecord(completion);
    cbody.resize(cbody.size() - 2);
    EXPECT_FALSE(journal::decodeCompletionRecord(cbody).has_value());
}

TEST(JournalRecords, FrameCarriesLengthAndCrc)
{
    auto body = journal::encodeTaskRecord({4, 10, 0, 6});
    auto frame = journal::frameRecord(body);
    ASSERT_EQ(frame.size(), journal::kRecordFrameBytes + body.size());
    uint32_t length = 0;
    for (int i = 0; i < 4; ++i)
        length |= static_cast<uint32_t>(frame[i]) << (8 * i);
    EXPECT_EQ(length, body.size());
    EXPECT_TRUE(std::equal(body.begin(), body.end(),
                           frame.begin() + journal::kRecordFrameBytes));
}

} // namespace
} // namespace bzk
