/**
 * @file
 * The protocol table (core/Protocol.h), run for every ProtocolKind
 * below kNumProtocolKinds so that a kind without a row fails: a proved
 * task maps back to its kind and verifies, the verifier rejects every
 * other statement, kind, proof system and malformed blob, and the
 * prover stops cleanly at each ProveStage.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/Circuit.h"
#include "core/FullSnark.h"
#include "core/Protocol.h"
#include "core/Serialize.h"
#include "exec/ExecContext.h"
#include "gkr/LayeredCircuit.h"
#include "hash/Transcript.h"

namespace bzk {
namespace {

constexpr unsigned kVars = 8;
constexpr uint64_t kSeed = 2024;
constexpr uint64_t kTaskId = 7;

constexpr ProveStage kStages[] = {ProveStage::Encode, ProveStage::Merkle,
                                  ProveStage::FiatShamir,
                                  ProveStage::Sumcheck};

std::vector<sched::ProtocolKind>
allKinds()
{
    std::vector<sched::ProtocolKind> kinds;
    for (size_t i = 0; i < sched::kNumProtocolKinds; ++i)
        kinds.push_back(
            *sched::protocolKindFromByte(static_cast<uint8_t>(i)));
    return kinds;
}

/** Task kTaskId proved once per kind. */
const std::vector<uint8_t> &
taskProof(sched::ProtocolKind kind)
{
    static const std::vector<std::vector<uint8_t>> proofs = [] {
        exec::ExecContext exec;
        std::vector<std::vector<uint8_t>> out;
        for (sched::ProtocolKind k : allKinds())
            out.push_back(*proveTask(k, kTaskId, kSeed, kVars, exec));
        return out;
    }();
    return proofs.at(static_cast<size_t>(kind));
}

/** A serialized wiring-sound proof (tag 0x02). */
std::vector<uint8_t>
fullSnarkBlob()
{
    Rng rng(5);
    Circuit<Fr> c;
    std::vector<WireId> pool{c.addInput(), c.addWitness(),
                             c.addWitness()};
    while (c.numGates() < 150) {
        WireId l = pool[rng.nextBounded(pool.size())];
        WireId r = pool[rng.nextBounded(pool.size())];
        pool.push_back((rng.next() & 1) ? c.mul(l, r) : c.add(l, r));
    }
    std::vector<Fr> inputs{Fr::fromUint(5)};
    std::vector<Fr> witness(c.numWitnesses());
    for (auto &w : witness)
        w = Fr::random(rng);
    FullSnark<Fr> snark(buildR1cs(c), kSeed);
    return serializeFullProof(
        snark.prove(inputs, c.evaluate(inputs, witness)));
}

/** A serialized GKR proof (tag 0x03). */
std::vector<uint8_t>
gkrBlob()
{
    Rng rng(6);
    auto c = randomLayeredCircuit<Fr>(4, 3, 12, rng);
    std::vector<Fr> inputs(16);
    for (auto &x : inputs)
        x = Fr::random(rng);
    Transcript transcript("protocol-table");
    return serializeGkrProof(Gkr<Fr>(c).prove(inputs, transcript));
}

class ProtocolTable : public ::testing::TestWithParam<sched::ProtocolKind>
{
};

TEST_P(ProtocolTable, ProvedTaskMapsBackToItsKindAndVerifies)
{
    const auto &bytes = taskProof(GetParam());
    EXPECT_EQ(proofKind(bytes), GetParam());
    EXPECT_TRUE(verifyProof(GetParam(), bytes, kVars, kSeed));
    auto info = proofInfo(GetParam(), bytes);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->rounds, kVars);
    EXPECT_EQ(info->opened_columns, 8u);
}

TEST_P(ProtocolTable, VerifierRejectsAnotherStatement)
{
    const auto &bytes = taskProof(GetParam());
    EXPECT_FALSE(verifyProof(GetParam(), bytes, kVars + 1, kSeed));
    EXPECT_FALSE(verifyProof(GetParam(), bytes, kVars, kSeed + 1));
}

TEST_P(ProtocolTable, VerifierRejectsEveryOtherKind)
{
    for (sched::ProtocolKind other : allKinds()) {
        if (other == GetParam())
            continue;
        SCOPED_TRACE(sched::protocolKindName(other));
        EXPECT_FALSE(
            verifyProof(GetParam(), taskProof(other), kVars, kSeed));
        EXPECT_FALSE(proofInfo(GetParam(), taskProof(other)).has_value());
    }
}

TEST_P(ProtocolTable, VerifierRejectsOtherProofSystems)
{
    for (const auto &blob : {fullSnarkBlob(), gkrBlob()}) {
        SCOPED_TRACE(static_cast<int>(blob.at(0)));
        EXPECT_FALSE(proofKind(blob).has_value());
        EXPECT_FALSE(verifyProof(GetParam(), blob, kVars, kSeed));
    }
}

TEST_P(ProtocolTable, VerifierRejectsEmptyAndTruncatedBytes)
{
    EXPECT_FALSE(proofKind({}).has_value());
    EXPECT_FALSE(verifyProof(GetParam(), {}, kVars, kSeed));
    const auto &bytes = taskProof(GetParam());
    for (size_t keep : {size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
        SCOPED_TRACE(keep);
        std::span<const uint8_t> prefix(bytes.data(), keep);
        EXPECT_FALSE(verifyProof(GetParam(), prefix, kVars, kSeed));
        EXPECT_FALSE(proofInfo(GetParam(), prefix).has_value());
    }
}

TEST_P(ProtocolTable, HookStopsTheProverAtEveryStage)
{
    exec::ExecContext exec;
    for (ProveStage stop : kStages) {
        SCOPED_TRACE(static_cast<int>(stop));
        std::vector<ProveStage> seen;
        auto proof = proveTask(GetParam(), kTaskId, kSeed, kVars, exec,
                               [&](ProveStage stage) {
                                   seen.push_back(stage);
                                   return stage != stop;
                               });
        EXPECT_FALSE(proof.has_value());
        ASSERT_FALSE(seen.empty());
        EXPECT_EQ(seen.back(), stop);
    }
    // A hook that never stops changes nothing.
    auto proof = proveTask(GetParam(), kTaskId, kSeed, kVars, exec,
                           [](ProveStage) { return true; });
    ASSERT_TRUE(proof.has_value());
    EXPECT_EQ(*proof, taskProof(GetParam()));
}

TEST_P(ProtocolTable, NamesRoundTrip)
{
    const char *name = sched::protocolKindName(GetParam());
    EXPECT_EQ(sched::protocolKindFromName(name), GetParam());
    EXPECT_EQ(sched::protocolKindFromByte(
                  static_cast<uint8_t>(GetParam())),
              GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ProtocolTable, ::testing::ValuesIn(allKinds()),
    [](const ::testing::TestParamInfo<sched::ProtocolKind> &info) {
        return std::string(sched::protocolKindMetricName(info.param));
    });

TEST(ProtocolKindNames, UnknownNamesAndBytesAreRejected)
{
    EXPECT_FALSE(sched::protocolKindFromName("mixed").has_value());
    EXPECT_FALSE(sched::protocolKindFromName("").has_value());
    EXPECT_FALSE(sched::protocolKindFromByte(
                     static_cast<uint8_t>(sched::kNumProtocolKinds))
                     .has_value());
}

} // namespace
} // namespace bzk
