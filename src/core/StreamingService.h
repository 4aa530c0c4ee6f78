#ifndef BZK_CORE_STREAMINGSERVICE_H_
#define BZK_CORE_STREAMINGSERVICE_H_

/**
 * @file
 * Open-loop streaming service model: the paper motivates batch
 * throughput with providers whose "customer inputs come in like a
 * flowing stream" (Sec. 1, Sec. 5). This module closes the loop from
 * the pipeline's cycle rate to request-level latency: Poisson arrivals
 * queue for admission (one task enters the pipeline per cycle) and each
 * admitted task completes after the pipeline depth.
 *
 * It exposes the queueing quantities a service operator cares about —
 * sojourn percentiles, queue length, saturation — which the paper's
 * tables imply but do not report.
 */

#include <cstddef>
#include <cstdint>

#include "core/PipelinedSystem.h"
#include "gpusim/Device.h"
#include "util/Rng.h"

namespace bzk {

/** Workload description for a streaming run. */
struct StreamingOptions
{
    /** Mean request arrival rate (requests per millisecond). */
    double arrival_rate_per_ms = 1.0;
    /** Requests to simulate. */
    size_t num_requests = 10000;
    /** Circuit-size class (constraint-table log-size). */
    unsigned n_vars = 18;
    /** Public encoder seed. */
    uint64_t seed = 2024;
    /** Proving protocol the stream's requests run. */
    sched::ProtocolKind kind = sched::ProtocolKind::TableCommit;

    /// @name Admission-queue robustness (defaults preserve the
    /// unguarded open-loop behavior bit for bit)
    /// @{

    /**
     * A request still queued this long after submission abandons the
     * queue (counted in StreamingResult::timed_out). 0 disables.
     */
    double timeout_ms = 0.0;
    /**
     * Re-submissions a timed-out request may make before it is dropped
     * for good. 0 disables retry.
     */
    size_t max_retries = 0;
    /**
     * Base client back-off before the first re-submission; doubles on
     * every further attempt (exponential backoff). When 0 with retries
     * enabled, one pipeline cycle is used.
     */
    double backoff_ms = 0.0;
    /**
     * Admission-queue capacity; arrivals (and re-submissions) beyond it
     * are shed instead of queued, so an overloaded service rejects work
     * rather than growing the queue without bound. 0 = unbounded.
     */
    size_t queue_capacity = 0;

    /// @}
};

/** Request-level results of a streaming run. */
struct StreamingResult
{
    /** Pipeline admission interval, ms. */
    double cycle_ms = 0.0;
    /** Pipeline depth in cycles. */
    size_t depth = 0;
    /** Offered load as a fraction of pipeline capacity. */
    double offered_load = 0.0;
    /** Sojourn time (arrival to proof completion) percentiles, ms. */
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
    /** Time-averaged queue length at admission. */
    double mean_queue = 0.0;
    /** Largest queue length observed at any cycle boundary. */
    size_t max_queue = 0;
    /** Completed requests per ms over the run. */
    double throughput_per_ms = 0.0;

    /// @name Robustness counters (all zero with the default options and
    /// no fault injector)
    /// @{

    /** Requests whose proof actually completed. */
    size_t completed = 0;
    /** Timeout events (a request gave up waiting for admission). */
    size_t timed_out = 0;
    /** Re-submissions made after timeouts (with backoff). */
    size_t retried = 0;
    /** Arrivals rejected because the admission queue was full. */
    size_t shed = 0;

    /// @}
};

/** Streaming front-end over the pipelined ZKP system. */
class StreamingZkpService
{
  public:
    StreamingZkpService(gpusim::Device &dev, SystemOptions system_opt = {})
        : dev_(dev), system_opt_(system_opt)
    {
    }

    /**
     * Simulate @p workload against the pipeline's steady-state cycle.
     * Deterministic given @p rng's seed.
     */
    StreamingResult run(const StreamingOptions &workload, Rng &rng) const;

  private:
    gpusim::Device &dev_;
    SystemOptions system_opt_;
};

} // namespace bzk

#endif // BZK_CORE_STREAMINGSERVICE_H_
