#include "core/Protocol.h"

#include "core/HighDegreeSnark.h"
#include "core/Serialize.h"
#include "core/Snark.h"
#include "util/Log.h"

namespace bzk {

namespace {

/** A kind's gate, instance builder and sum-check ops per table pair. */
template <typename Gate>
struct Row
{
    ConstraintTables<Fr> (*instance)(unsigned n_vars, Rng &rng);
    SumcheckOps sumcheck;
};

/** The table: call @p f with the row of @p kind. */
template <typename Fn>
auto
withRow(sched::ProtocolKind kind, Fn &&f)
{
    switch (kind) {
      case sched::ProtocolKind::TableCommit:
        // Degree-3 round evaluations plus folds of four tables.
        return f(Row<MulGate>{randomInstance, {12.0, 30.0}});
      case sched::ProtocolKind::HighDegreeGate:
        // eq * (a^4 b - c) at 7 points (a^4 by two squarings) plus
        // folds of four tables.
        return f(Row<Pow4Gate>{highDegreeInstance<Fr>, {56.0, 70.0}});
    }
    panic("no protocol row for kind %u", static_cast<unsigned>(kind));
}

} // namespace

Rng
taskInstanceRng(uint64_t task_id, uint64_t seed, uint32_t n_vars)
{
    uint64_t mix = seed ^ (task_id * 0x9e3779b97f4a7c15ULL);
    return Rng(mix ^ (uint64_t{n_vars} << 56));
}

ConstraintTables<Fr>
protocolInstance(sched::ProtocolKind kind, unsigned n_vars, Rng &rng)
{
    return withRow(kind,
                   [&](auto row) { return row.instance(n_vars, rng); });
}

std::optional<std::vector<uint8_t>>
proveTables(sched::ProtocolKind kind, const ConstraintTables<Fr> &tables,
            uint64_t seed, std::span<const Fr> public_inputs,
            const exec::ExecContext &exec, const ProveStageHook &hook)
{
    return withRow(kind, [&]<typename Gate>(Row<Gate>)
                             -> std::optional<std::vector<uint8_t>> {
        GateSnark<Fr, Gate> snark(tables.n_vars, seed);
        snark.setExec(&exec);
        auto proof = snark.proveInterruptible(tables, public_inputs, hook);
        if (!proof)
            return std::nullopt;
        return serializeProof(*proof);
    });
}

std::optional<std::vector<uint8_t>>
proveTask(sched::ProtocolKind kind, uint64_t task_id, uint64_t seed,
          unsigned n_vars, const exec::ExecContext &exec,
          const ProveStageHook &hook)
{
    Rng rng = taskInstanceRng(task_id, seed, n_vars);
    return proveTables(kind, protocolInstance(kind, n_vars, rng), seed, {},
                       exec, hook);
}

std::optional<sched::ProtocolKind>
proofKind(std::span<const uint8_t> bytes)
{
    for (size_t i = 0; i < sched::kNumProtocolKinds && !bytes.empty();
         ++i) {
        auto kind = static_cast<sched::ProtocolKind>(i);
        if (withRow(kind, []<typename Gate>(Row<Gate>) {
                return Gate::kProofTag;
            }) == bytes[0])
            return kind;
    }
    return std::nullopt;
}

bool
verifyProof(sched::ProtocolKind kind, std::span<const uint8_t> bytes,
            unsigned n_vars, uint64_t seed,
            std::span<const Fr> public_inputs)
{
    return withRow(kind, [&]<typename Gate>(Row<Gate>) {
        auto proof = deserializeProof<Fr, Gate>(bytes);
        return proof && GateSnark<Fr, Gate>(n_vars, seed)
                            .verify(*proof, public_inputs);
    });
}

std::optional<ProofInfo>
proofInfo(sched::ProtocolKind kind, std::span<const uint8_t> bytes)
{
    return withRow(kind, [&]<typename Gate>(Row<Gate>)
                             -> std::optional<ProofInfo> {
        auto proof = deserializeProof<Fr, Gate>(bytes);
        if (!proof)
            return std::nullopt;
        return ProofInfo{proof->gate_sc.rounds.size(),
                         proof->open_a.columns.size(), proof->sizeBytes()};
    });
}

SumcheckOps
protocolSumcheckOps(sched::ProtocolKind kind)
{
    return withRow(kind, [](auto row) { return row.sumcheck; });
}

} // namespace bzk
