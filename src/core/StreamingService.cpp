#include "core/StreamingService.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/Protocol.h"
#include "gpusim/FaultInjector.h"
#include "sched/AdmissionQueue.h"
#include "sched/CycleModel.h"
#include "util/Log.h"

namespace bzk {

StreamingResult
StreamingZkpService::run(const StreamingOptions &workload, Rng &rng) const
{
    if (workload.arrival_rate_per_ms <= 0 || workload.num_requests == 0)
        fatal("StreamingZkpService: empty workload");

    // Steady-state admission interval from the scheduler's cycle model
    // over the same stage graph the batch system runs: one task enters
    // per cycle, bounded by the slower of compute and (overlapped)
    // transfer.
    sched::StageGraph graph = systemStageGraph(protocolWorkModel(
        workload.kind, workload.n_vars, workload.seed));
    sched::CycleModel cycle_model(graph, dev_,
                                  system_opt_.overlap_transfers);
    double cycle_ms = cycle_model.cycleMs();
    size_t depth = cycle_model.depth();

    StreamingResult result;
    result.cycle_ms = cycle_ms;
    result.depth = depth;
    result.offered_load = workload.arrival_rate_per_ms * cycle_ms;

    // Poisson arrivals.
    std::vector<double> arrivals(workload.num_requests);
    double t = 0.0;
    for (auto &a : arrivals) {
        // Exponential inter-arrival via inverse CDF.
        double u = rng.nextDouble();
        t += -std::log(1.0 - u) / workload.arrival_rate_per_ms;
        a = t;
    }

    gpusim::FaultInjector *inj = dev_.faultInjector();
    double backoff_base =
        workload.backoff_ms > 0.0 ? workload.backoff_ms : cycle_ms;

    // Admission: one request per cycle boundary, FIFO, through the
    // scheduler's guarded admission queue. Requests ending any other
    // way (shed at a full queue, dropped after exhausting retries)
    // also terminate, so every original request is accounted for
    // exactly once.
    std::vector<double> sojourns;
    sojourns.reserve(workload.num_requests);
    sched::AdmissionQueue queue({workload.timeout_ms,
                                 workload.max_retries, backoff_base,
                                 workload.queue_capacity});
    size_t next_arrival = 0;
    size_t cycle_index = 0;
    double queue_area = 0.0;
    double now = 0.0;
    double last_completion = 0.0;

    while (result.completed + queue.shed() + queue.dropped() <
           workload.num_requests) {
        // Injected faults stretch this cycle: transfer stalls slow the
        // streamed input, failed lanes slow the compute.
        double step = inj ? cycle_model.stepMs(*inj, cycle_index)
                          : cycle_ms;
        ++cycle_index;

        double next_cycle = now + step;
        while (next_arrival < arrivals.size() &&
               arrivals[next_arrival] <= next_cycle) {
            queue.submit(arrivals[next_arrival]);
            ++next_arrival;
        }
        queue.pullResubmits(next_cycle);
        queue_area += static_cast<double>(queue.depth()) * step;
        result.max_queue = std::max(result.max_queue, queue.depth());
        now = next_cycle;
        if (auto p = queue.admitOne(now)) {
            // Admitted this cycle; completes after the pipeline depth.
            double completion =
                now + static_cast<double>(depth) * cycle_ms;
            sojourns.push_back(completion - p->first_arrival);
            ++result.completed;
            last_completion = std::max(last_completion, completion);
        }
    }
    result.timed_out = queue.timedOut();
    result.retried = queue.retried();
    result.shed = queue.shed();

    if (!sojourns.empty()) {
        std::sort(sojourns.begin(), sojourns.end());
        auto pct = [&](double p) {
            size_t idx = static_cast<size_t>(p * (sojourns.size() - 1));
            return sojourns[idx];
        };
        result.p50_ms = pct(0.50);
        result.p90_ms = pct(0.90);
        result.p99_ms = pct(0.99);
        result.max_ms = sojourns.back();
    }
    result.mean_queue = now > 0.0 ? queue_area / now : 0.0;
    result.throughput_per_ms =
        last_completion > 0.0
            ? static_cast<double>(sojourns.size()) / last_completion
            : 0.0;
    return result;
}

} // namespace bzk
