#include "net/Executor.h"

#include <algorithm>

#include "core/Bytes.h"
#include "core/Protocol.h"
#include "exec/ExecContext.h"
#include "hash/Sha256.h"

namespace bzk::net {

namespace {

std::vector<uint8_t>
taskIdentityBytes(const Submit &task)
{
    ByteWriter w;
    w.u64(task.task_id);
    w.u32(task.n_vars);
    w.u64(task.seed);
    return w.take();
}

} // namespace

std::vector<uint8_t>
SnarkExecutor::execute(const Submit &task)
{
    // Serial per task: tasks parallelize across the server's workers,
    // so the shared host pool is never entered from two provers.
    exec::ExecContext exec(exec::ExecConfig{.threads = 1});
    return *proveTask(task.kind, task.task_id, task.seed, task.n_vars,
                      exec);
}

std::vector<uint8_t>
DigestExecutor::execute(const Submit &task)
{
    Digest d = Sha256::digest(taskIdentityBytes(task));
    // Deterministic busy work so load tests can model a prover whose
    // cost dwarfs the digest (volatile keeps the loop un-elided).
    volatile uint64_t sink = 0;
    for (size_t i = 0; i < spin_iterations_; ++i)
        sink = sink + (sink ^ i) * 0x9e3779b97f4a7c15ULL;
    return {d.bytes.begin(), d.bytes.end()};
}

bool
verifyDigestProof(const Submit &task, const std::vector<uint8_t> &proof)
{
    Digest d = Sha256::digest(taskIdentityBytes(task));
    return proof.size() == d.bytes.size() &&
           std::equal(proof.begin(), proof.end(), d.bytes.begin());
}

} // namespace bzk::net
