#ifndef BZK_NET_EXECUTOR_H_
#define BZK_NET_EXECUTOR_H_

/**
 * @file
 * Proof executors for the network server: the pluggable "what does a
 * task cost" seam between the connection manager and the provers.
 *
 * SnarkExecutor produces real proofs of the task's protocol kind
 * through proveTask() (core/Protocol.h), the call the durable service
 * re-proves with, so a proof served over the wire verifies with
 * verifyProof(kind, proof, n_vars, seed) and is byte-for-byte what
 * `batchzk recover` would re-prove. DigestExecutor is the soak-bench
 * stand-in: a deterministic 32-byte pseudo-proof (SHA-256 of the task
 * identity) that keeps bench_net's thousands of connections bounded by
 * the network layer, not the prover.
 *
 * execute() is called concurrently from the server's worker threads;
 * implementations must be thread-safe.
 */

#include <cstdint>
#include <vector>

#include "net/Wire.h"

namespace bzk::net {

/** Turns one admitted Submit into proof bytes. Thread-safe. */
class ProofExecutor
{
  public:
    virtual ~ProofExecutor() = default;

    /** Prove @p task; returns the serialized proof. */
    virtual std::vector<uint8_t> execute(const Submit &task) = 0;
};

/**
 * Real prover: bit-identical to the durable service's re-prove path.
 * Each execute() proves serially (threads = 1); parallelism comes from
 * the server's worker pool running many tasks at once.
 */
class SnarkExecutor : public ProofExecutor
{
  public:
    std::vector<uint8_t> execute(const Submit &task) override;
};

/**
 * Deterministic pseudo-prover for load tests: SHA-256 over the task
 * identity. verifyDigestProof() is the matching client-side check.
 */
class DigestExecutor : public ProofExecutor
{
  public:
    /** @param spin_iterations busy work per task (models prover cost). */
    explicit DigestExecutor(size_t spin_iterations = 0)
        : spin_iterations_(spin_iterations)
    {
    }

    std::vector<uint8_t> execute(const Submit &task) override;

  private:
    size_t spin_iterations_;
};

/** Recompute and compare a DigestExecutor proof. */
bool verifyDigestProof(const Submit &task,
                       const std::vector<uint8_t> &proof);

} // namespace bzk::net

#endif // BZK_NET_EXECUTOR_H_
