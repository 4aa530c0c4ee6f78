#ifndef BZK_CORE_SERIALIZE_H_
#define BZK_CORE_SERIALIZE_H_

/**
 * @file
 * Wire format for proofs.
 *
 * The paper's deployment scenarios (MLaaS, zkBridge) ship proofs over
 * the network, so the library provides a deterministic, bounds-checked
 * byte encoding for every proof type. Layout is little-endian with
 * u32 length prefixes; a tag byte leads each proof so the format can
 * evolve and codecs never cross. Every length prefix is checked against
 * both a hard cap and the bytes left, so decoding allocates in
 * proportion to its input.
 */

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "core/Bytes.h"
#include "core/FullSnark.h"
#include "core/GateSnark.h"
#include "core/HighDegreeSnark.h"
#include "core/Snark.h"
#include "gkr/Gkr.h"

namespace bzk {

namespace detail {

constexpr uint8_t kFullSnarkProofTag = 0x02;
constexpr uint8_t kGkrProofTag = 0x03;
/** Caps for hostile length prefixes. */
constexpr size_t kMaxRounds = 64;
constexpr size_t kMaxRowLen = size_t{1} << 24;
constexpr size_t kMaxColumns = 4096;
constexpr size_t kMaxPathLen = 64;
/** The fewest bytes a length-prefixed item can encode to. */
constexpr size_t kLengthBytes = 4;
constexpr size_t kDigestBytes = 32;
/** A column's own length prefix plus its path's leaf index and depth. */
constexpr size_t kMinColumnBytes = kLengthBytes + 8 + kLengthBytes;

template <typename F>
void
writeEvalProof(ByteWriter &w, const PcsEvalProof<F> &open)
{
    w.u32(static_cast<uint32_t>(open.eval_row.size()));
    for (const F &v : open.eval_row)
        w.field(v);
    w.u32(static_cast<uint32_t>(open.proximity_row.size()));
    for (const F &v : open.proximity_row)
        w.field(v);
    w.u32(static_cast<uint32_t>(open.columns.size()));
    for (const auto &column : open.columns) {
        w.u32(static_cast<uint32_t>(column.size()));
        for (const F &v : column)
            w.field(v);
    }
    for (const auto &path : open.paths) {
        w.u64(path.leaf_index);
        w.u32(static_cast<uint32_t>(path.siblings.size()));
        for (const Digest &d : path.siblings)
            w.digest(d);
    }
}

template <typename F>
PcsEvalProof<F>
readEvalProof(ByteReader &r)
{
    PcsEvalProof<F> open;
    size_t n = r.length(kMaxRowLen, F::kNumBytes);
    open.eval_row.resize(n);
    for (auto &v : open.eval_row)
        v = r.template field<F>();
    n = r.length(kMaxRowLen, F::kNumBytes);
    open.proximity_row.resize(n);
    for (auto &v : open.proximity_row)
        v = r.template field<F>();
    size_t cols = r.length(kMaxColumns, kMinColumnBytes);
    open.columns.resize(cols);
    for (auto &column : open.columns) {
        size_t k = r.length(kMaxRowLen, F::kNumBytes);
        column.resize(k);
        for (auto &v : column)
            v = r.template field<F>();
    }
    open.paths.resize(cols);
    for (auto &path : open.paths) {
        path.leaf_index = r.u64();
        size_t depth = r.length(kMaxPathLen, kDigestBytes);
        path.siblings.resize(depth);
        for (auto &d : path.siblings)
            d = r.digest();
    }
    return open;
}

template <typename F>
void
writeRounds(ByteWriter &w, const std::vector<std::vector<F>> &rounds)
{
    w.u32(static_cast<uint32_t>(rounds.size()));
    for (const auto &g : rounds) {
        w.u32(static_cast<uint32_t>(g.size()));
        for (const F &v : g)
            w.field(v);
    }
}

template <typename F>
std::vector<std::vector<F>>
readRounds(ByteReader &r, size_t max_rounds = kMaxRounds)
{
    std::vector<std::vector<F>> rounds(r.length(max_rounds, kLengthBytes));
    for (auto &g : rounds) {
        g.resize(r.length(8, F::kNumBytes));
        for (auto &v : g)
            v = r.template field<F>();
    }
    return rounds;
}

} // namespace detail

/**
 * Encode a gate proof (core/GateSnark.h). The gate's tag leads the
 * blob, so every byte sink (journal completions, wire Results, .bzkp
 * files) dispatches on the blob itself.
 */
template <typename F, typename Gate>
std::vector<uint8_t>
serializeProof(const GateProof<F, Gate> &proof)
{
    ByteWriter w;
    w.u8(Gate::kProofTag);
    for (const PcsCommitment *commit :
         {&proof.commit_a, &proof.commit_b, &proof.commit_c}) {
        w.digest(commit->root);
        w.u8(static_cast<uint8_t>(commit->n_vars));
    }
    detail::writeRounds(w, proof.gate_sc.rounds);
    w.field(proof.va);
    w.field(proof.vb);
    w.field(proof.vc);
    detail::writeEvalProof(w, proof.open_a);
    detail::writeEvalProof(w, proof.open_b);
    detail::writeEvalProof(w, proof.open_c);
    return w.take();
}

/**
 * Decode a gate proof, by default a table-commitment (MulGate) one;
 * nullopt when malformed or tagged for another gate.
 */
template <typename F, typename Gate = MulGate>
std::optional<GateProof<F, Gate>>
deserializeProof(std::span<const uint8_t> bytes)
{
    ByteReader r(bytes);
    if (r.u8() != Gate::kProofTag)
        return std::nullopt;
    GateProof<F, Gate> proof;
    for (PcsCommitment *commit :
         {&proof.commit_a, &proof.commit_b, &proof.commit_c}) {
        commit->root = r.digest();
        commit->n_vars = r.u8();
    }
    proof.gate_sc.rounds = detail::readRounds<F>(r);
    proof.va = r.field<F>();
    proof.vb = r.field<F>();
    proof.vc = r.field<F>();
    proof.open_a = detail::readEvalProof<F>(r);
    proof.open_b = detail::readEvalProof<F>(r);
    proof.open_c = detail::readEvalProof<F>(r);
    if (!r.ok() || r.remaining() != 0)
        return std::nullopt;
    return proof;
}

/** serializeProof, named for the high-degree gate. */
template <typename F>
std::vector<uint8_t>
serializeHighDegreeProof(const HighDegreeProof<F> &proof)
{
    return serializeProof(proof);
}

/** deserializeProof for the high-degree gate. */
template <typename F>
std::optional<HighDegreeProof<F>>
deserializeHighDegreeProof(std::span<const uint8_t> bytes)
{
    return deserializeProof<F, Pow4Gate>(bytes);
}

/** Encode a wiring-sound proof. */
template <typename F>
std::vector<uint8_t>
serializeFullProof(const FullSnarkProof<F> &proof)
{
    ByteWriter w;
    w.u8(detail::kFullSnarkProofTag);
    w.digest(proof.commit_w.root);
    w.u8(static_cast<uint8_t>(proof.commit_w.n_vars));
    detail::writeRounds(w, proof.phase1.rounds);
    w.field(proof.va);
    w.field(proof.vb);
    w.field(proof.vc);
    detail::writeRounds(w, proof.phase2.rounds);
    w.field(proof.vw);
    detail::writeEvalProof(w, proof.open_w);
    return w.take();
}

/** Decode a wiring-sound proof; nullopt when malformed. */
template <typename F>
std::optional<FullSnarkProof<F>>
deserializeFullProof(std::span<const uint8_t> bytes)
{
    ByteReader r(bytes);
    if (r.u8() != detail::kFullSnarkProofTag)
        return std::nullopt;
    FullSnarkProof<F> proof;
    proof.commit_w.root = r.digest();
    proof.commit_w.n_vars = r.u8();
    proof.phase1.rounds = detail::readRounds<F>(r);
    proof.va = r.field<F>();
    proof.vb = r.field<F>();
    proof.vc = r.field<F>();
    proof.phase2.rounds = detail::readRounds<F>(r);
    proof.vw = r.field<F>();
    proof.open_w = detail::readEvalProof<F>(r);
    if (!r.ok() || r.remaining() != 0)
        return std::nullopt;
    return proof;
}

/** Encode a GKR proof. */
template <typename F>
std::vector<uint8_t>
serializeGkrProof(const GkrProof<F> &proof)
{
    ByteWriter w;
    w.u8(detail::kGkrProofTag);
    w.u32(static_cast<uint32_t>(proof.outputs.size()));
    for (const F &o : proof.outputs)
        w.field(o);
    w.u32(static_cast<uint32_t>(proof.layers.size()));
    for (const auto &layer : proof.layers) {
        detail::writeRounds(w, layer.rounds);
        w.field(layer.vx);
        w.field(layer.vy);
    }
    return w.take();
}

/** Decode a GKR proof; nullopt when malformed. */
template <typename F>
std::optional<GkrProof<F>>
deserializeGkrProof(std::span<const uint8_t> bytes)
{
    ByteReader r(bytes);
    if (r.u8() != detail::kGkrProofTag)
        return std::nullopt;
    GkrProof<F> proof;
    proof.outputs.resize(r.length(detail::kMaxRowLen, F::kNumBytes));
    for (auto &o : proof.outputs)
        o = r.field<F>();
    // A layer is at least its round count plus vx and vy.
    proof.layers.resize(
        r.length(256, detail::kLengthBytes + 2 * F::kNumBytes));
    for (auto &layer : proof.layers) {
        layer.rounds = detail::readRounds<F>(r, 2 * detail::kMaxRounds);
        layer.vx = r.field<F>();
        layer.vy = r.field<F>();
    }
    if (!r.ok() || r.remaining() != 0)
        return std::nullopt;
    return proof;
}

} // namespace bzk

#endif // BZK_CORE_SERIALIZE_H_
