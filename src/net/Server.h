#ifndef BZK_NET_SERVER_H_
#define BZK_NET_SERVER_H_

/**
 * @file
 * Async TCP proof server: the network front end that turns the
 * in-process proving library into a multi-tenant service.
 *
 * One epoll loop thread owns every socket and all protocol state; a
 * small worker pool runs the ProofExecutor. The loop accepts
 * connections, steps each connection's state machine (Hello handshake,
 * then Submit/Result traffic), and applies the service guard rails in
 * admission order:
 *
 *   1. parameter check        -> Result{Invalid}
 *   2. per-tenant token bucket -> Result{Retry, retry_after_ms}
 *   3. bounded admission queue -> Result{Shed} (sched::AdmissionQueue,
 *      the same guard-rail engine the streaming service admits through;
 *      a queue deadline expiry also sheds)
 *   4. bounded in-flight window -> tasks wait in the queue; the window
 *      defaults to one task per worker, so every task that is not
 *      running waits where rail 3's capacity and deadline reach it
 *
 * Results flow back through a completion queue and an eventfd wakeup,
 * so worker threads never touch a socket. Every observable quantity is
 * exported twice: as bzk_net_* metrics (loop-thread-only updates) and
 * as a mutex-guarded ServerStats snapshot for tests and benches.
 */

#include <array>
#include <cstdint>
#include <map>
#include <memory>

#include "net/Executor.h"
#include "obs/Metrics.h"
#include "sched/ProtocolKind.h"

namespace bzk::net {

/** Service configuration (zeros pick the documented defaults). */
struct ServerOptions
{
    /** Listen port on 127.0.0.1; 0 binds an ephemeral port. */
    uint16_t port = 0;
    /** Open connections beyond this are accepted and closed at once. */
    size_t max_connections = 4096;
    /** Admission-queue capacity; excess submits are shed. 0 = unbounded. */
    size_t queue_capacity = 4096;
    /** Queued longer than this is shed (0 disables the deadline), ms. */
    double queue_timeout_ms = 0.0;
    /** In-flight window; 0 = one task per worker. */
    size_t window = 0;
    /** Per-tenant sustained submit rate, tokens/s; 0 = unlimited. */
    double tenant_rate_per_s = 0.0;
    /** Per-tenant burst size; 0 = one second of tokens. */
    double tenant_burst = 0.0;
    /** Executor worker threads. */
    size_t workers = 2;
    /** Largest task log-size a Submit may carry. */
    unsigned max_n_vars = 16;
};

/** Per-tenant accounting. */
struct TenantStats
{
    uint64_t submits = 0;
    uint64_t results_ok = 0;
    uint64_t retries = 0;
    uint64_t sheds = 0;
};

/** Snapshot of the server's counters (stats()). */
struct ServerStats
{
    uint64_t connections_accepted = 0;
    uint64_t connections_closed = 0;
    uint64_t connections_rejected = 0;
    uint64_t frames_rx = 0;
    uint64_t frames_tx = 0;
    uint64_t bytes_rx = 0;
    uint64_t bytes_tx = 0;
    uint64_t submits = 0;
    /** Submits broken down by proving protocol (ProtocolKind index). */
    std::array<uint64_t, sched::kNumProtocolKinds> submits_by_kind{};
    uint64_t results_ok = 0;
    uint64_t retries = 0;
    uint64_t sheds = 0;
    uint64_t invalid = 0;
    uint64_t queue_timeouts = 0;
    uint64_t protocol_errors = 0;
    /** Admissions/results whose connection had already gone away. */
    uint64_t orphaned = 0;
    size_t open_connections = 0;
    size_t peak_connections = 0;
    size_t queue_depth = 0;
    size_t peak_queue_depth = 0;
    size_t inflight = 0;
    /** Effective in-flight window (the worker count when unset). */
    size_t window = 0;
    std::map<uint64_t, TenantStats> tenants;
};

/** Epoll-based proof server. One instance per listen port. */
class ProofServer
{
  public:
    /**
     * @param executor proves admitted tasks; must be thread-safe and
     *        outlive the server. @p metrics (not owned, may be null)
     *        receives the bzk_net_* series, updated only from the loop
     *        thread.
     */
    ProofServer(ServerOptions opt, ProofExecutor &executor,
                obs::MetricsRegistry *metrics = nullptr);

    /** Stops and joins if still running. */
    ~ProofServer();

    ProofServer(const ProofServer &) = delete;
    ProofServer &operator=(const ProofServer &) = delete;

    /**
     * Bind the listener and start the loop + worker threads. False when
     * the port cannot be bound (nothing is started).
     */
    bool start();

    /** Request shutdown and join all threads. Idempotent. */
    void stop();

    /** Bound listen port (valid after start()). */
    uint16_t port() const { return port_; }

    /** True between a successful start() and stop(). */
    bool running() const;

    /** Consistent counter snapshot (callable from any thread). */
    ServerStats stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    uint16_t port_ = 0;
};

} // namespace bzk::net

#endif // BZK_NET_SERVER_H_
