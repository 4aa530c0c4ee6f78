#ifndef BZK_CORE_PROTOCOL_H_
#define BZK_CORE_PROTOCOL_H_

/**
 * @file
 * The protocol table: the only code that maps a sched::ProtocolKind, or
 * a proof's tag byte, to its gate (a GateSnark<Fr, Gate>), instance
 * builder and sum-check operation counts. The durable service and the
 * network executor both prove through proveTask(), so a served proof
 * equals a replayed one. A new kind is one row plus its gate.
 *
 * This is the real prover's side of the layering: nothing here reaches
 * the GPU simulator. The simulator's work model (core/PipelinedSystem.h)
 * calls in for protocolSumcheckOps(), never the other way round
 * (tests/test_layering.sh).
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/GateSnark.h"
#include "ff/Fields.h"
#include "sched/ProtocolKind.h"
#include "util/Rng.h"

namespace bzk {

/** Seeds task (task_id, seed, n_vars)'s instance wherever it is proved. */
Rng taskInstanceRng(uint64_t task_id, uint64_t seed, uint32_t n_vars);

/** A satisfied @p kind instance with 2^n_vars rows, drawn from @p rng. */
ConstraintTables<Fr> protocolInstance(sched::ProtocolKind kind,
                                      unsigned n_vars, Rng &rng);

/** Serialized proof of @p tables, or nullopt when @p hook stops it. */
std::optional<std::vector<uint8_t>>
proveTables(sched::ProtocolKind kind, const ConstraintTables<Fr> &tables,
            uint64_t seed, std::span<const Fr> public_inputs,
            const exec::ExecContext &exec, const ProveStageHook &hook = {});

/** proveTables over the task's taskInstanceRng instance, no inputs. */
std::optional<std::vector<uint8_t>>
proveTask(sched::ProtocolKind kind, uint64_t task_id, uint64_t seed,
          unsigned n_vars, const exec::ExecContext &exec,
          const ProveStageHook &hook = {});

/** The kind whose proof tag leads @p bytes; nullopt for any other. */
std::optional<sched::ProtocolKind>
proofKind(std::span<const uint8_t> bytes);

/** Decode and verify a @p kind proof; false if malformed or not one. */
bool verifyProof(sched::ProtocolKind kind, std::span<const uint8_t> bytes,
                 unsigned n_vars, uint64_t seed,
                 std::span<const Fr> public_inputs = {});

/** A well-formed proof's shape, as `batchzk info` prints it. */
struct ProofInfo
{
    size_t rounds = 0;
    size_t opened_columns = 0; // per committed table
    size_t size_bytes = 0;     // GateProof::sizeBytes()
};

/** Decode a @p kind proof's shape; nullopt when it is not one. */
std::optional<ProofInfo> proofInfo(sched::ProtocolKind kind,
                                   std::span<const uint8_t> bytes);

/** Field operations per table pair of a constraint sum-check. */
struct SumcheckOps
{
    double muls = 0.0;
    double adds = 0.0;
};

/** @p kind's constraint sum-check cost, for the simulator's model. */
SumcheckOps protocolSumcheckOps(sched::ProtocolKind kind);

} // namespace bzk

#endif // BZK_CORE_PROTOCOL_H_
