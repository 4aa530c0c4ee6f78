#ifndef BZK_SCHED_PROTOCOLKIND_H_
#define BZK_SCHED_PROTOCOLKIND_H_

/**
 * @file
 * The protocol-kind abstraction: which proving protocol a task runs.
 *
 * Every layer that carries tasks — the scheduler, the durable journal,
 * the wire protocol, the CLI — tags them with a ProtocolKind so one
 * batch can mix protocols with different module cost ratios. The enum
 * values are wire/journal-stable: they are serialized as a single byte
 * in journal task records (body version 2) and in Submit messages
 * (wire version 2), so existing values must never be renumbered.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace bzk::sched {

/** Which proving protocol a task runs. Byte-stable on wire and disk. */
enum class ProtocolKind : uint8_t {
    /**
     * The legacy BatchZK workload: Brakedown-style table commitment
     * plus the cubic constraint sum-check (paper Fig. 7).
     */
    TableCommit = 0,
    /**
     * HyperPlonk-style high-degree custom gate: the same tensor-PCS
     * commitments, but the constraint sum-check proves the degree-5
     * gate identity a^4*b - c = 0, giving degree-6 round polynomials
     * and a sum-check-dominated module cost mix.
     */
    HighDegreeGate = 1,
};

/** Number of protocol kinds (for per-kind tables). */
constexpr size_t kNumProtocolKinds = 2;

/** A kind's display name and its metric-safe form. */
struct ProtocolKindNames
{
    const char *name;
    const char *metric;
};

/** Names per kind, indexed by the kind's byte. */
inline constexpr ProtocolKindNames kProtocolKindNames[kNumProtocolKinds] = {
    {"table-commit", "table_commit"},
    {"high-degree-gate", "high_degree_gate"},
};

/** Decode a wire/journal byte; nullopt for unknown kinds. */
inline std::optional<ProtocolKind>
protocolKindFromByte(uint8_t byte)
{
    if (byte >= kNumProtocolKinds)
        return std::nullopt;
    return static_cast<ProtocolKind>(byte);
}

/** Parse a display name; nullopt for unknown names. */
inline std::optional<ProtocolKind>
protocolKindFromName(std::string_view name)
{
    for (size_t i = 0; i < kNumProtocolKinds; ++i)
        if (name == kProtocolKindNames[i].name)
            return static_cast<ProtocolKind>(i);
    return std::nullopt;
}

/** Stable display name ("table-commit", "high-degree-gate"). */
inline const char *
protocolKindName(ProtocolKind kind)
{
    size_t i = static_cast<size_t>(kind);
    return i < kNumProtocolKinds ? kProtocolKindNames[i].name : "?";
}

/** Metric-safe name ("table_commit", "high_degree_gate"). */
inline const char *
protocolKindMetricName(ProtocolKind kind)
{
    size_t i = static_cast<size_t>(kind);
    return i < kNumProtocolKinds ? kProtocolKindNames[i].metric
                                 : "unknown";
}

} // namespace bzk::sched

#endif // BZK_SCHED_PROTOCOLKIND_H_
