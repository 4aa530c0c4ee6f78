#ifndef BZK_CORE_PIPELINEDSYSTEM_H_
#define BZK_CORE_PIPELINEDSYSTEM_H_

/**
 * @file
 * The fully pipelined ZKP system of the paper's Section 4 (Figure 7),
 * plus the Orion&Arkworks-style CPU baseline it is compared against in
 * Table 7.
 *
 * One proof task enters the pipeline per cycle. Inside a cycle the three
 * module groups (linear-time encoders, Merkle trees, sum-check) all run
 * concurrently on statically partitioned lanes — partitioned
 * proportionally to each module's amortized cost, the paper's
 * "35 : 12 : 113"-style allocation — while the next task's inputs stream
 * from host memory and finished intermediate layers stream back
 * (dynamic loading, multi-stream overlap).
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/Circuit.h"
#include "core/Snark.h" // randomInstance, the instances run() proves
#include "ff/Fields.h"
#include "gpusim/BatchStats.h"
#include "gpusim/Device.h"
#include "sched/PipelineScheduler.h"
#include "util/Rng.h"

namespace bzk::obs {
class MetricsRegistry;
class TraceRecorder;
} // namespace bzk::obs

namespace bzk {

/** Configuration of the batch system. */
struct SystemOptions
{
    /** Number of proofs to generate functionally (and verify). */
    size_t functional = 1;
    /** Public encoder seed. */
    uint64_t seed = 2024;
    /**
     * Host threads for the functional provers (0 = resolve from the
     * --threads override, BZK_THREADS, then hardware concurrency; see
     * exec::resolveThreads). Proofs are bit-identical for any value.
     */
    size_t threads = 0;
    /**
     * Ablation: overlap host transfers with compute via multi-stream
     * (the paper's technique). When false, each cycle's input transfer
     * serializes with its computation.
     */
    bool overlap_transfers = true;
    /**
     * Ablation: dynamic loading (one task's data resident per pipeline
     * region). When false, the whole batch's inputs are staged on the
     * device up front, as the intuitive designs do.
     */
    bool dynamic_loading = true;
    /**
     * Lane-partition policy across module groups (see
     * sched::LanePolicy). Proportional is the legacy default and
     * keeps simulated schedules bit-identical with older builds.
     */
    sched::LanePolicy lane_policy = sched::LanePolicy::Proportional;
};

/** Result of a batch system run. */
struct SystemRunResult
{
    gpusim::BatchStats stats;
    /** Amortized per-proof module times, ms (Table 7 columns). */
    double encoder_ms = 0.0;
    double merkle_ms = 0.0;
    double sumcheck_ms = 0.0;
    /** Per-cycle communication / computation, ms (Table 9). */
    double comm_ms_per_cycle = 0.0;
    double comp_ms_per_cycle = 0.0;
    double cycle_ms = 0.0;
    /** Host->device bytes streamed per cycle (Table 9's "Comm. Size"). */
    uint64_t h2d_bytes_per_cycle = 0;
    /** Lane split across the three module groups (Sec. 4 example). */
    double lanes_encoder = 0.0;
    double lanes_merkle = 0.0;
    double lanes_sumcheck = 0.0;
    /** Serialized functional proofs produced (if any). */
    std::vector<std::vector<uint8_t>> proofs;
    /** All functional proofs passed verification. */
    bool verified = true;

    /// @name Fault-injection outcomes (all zero without an injector)
    /// @{

    /** Cycles run with part of the lane budget failed. */
    size_t degraded_cycles = 0;
    /**
     * Mean fraction of the static lane split re-allocated onto the
     * surviving lanes per degraded cycle (0 when never degraded).
     */
    double relocated_lane_fraction = 0.0;
    /** Corrupted staged Merkle layers caught by the root re-check. */
    size_t corrupt_detected = 0;
    /** Tasks re-run after their staged layers failed the re-check. */
    size_t retried_tasks = 0;

    /// @}

    /** Per-task scheduler accounting, in admission order. */
    std::vector<sched::TaskStats> task_stats;
};

/** Per-proof module work in lane-cycles (the system's cost inventory). */
struct SystemWorkModel
{
    double encoder_cycles = 0.0;
    double merkle_cycles = 0.0;
    double sumcheck_cycles = 0.0;
    size_t encoder_stages = 0;
    size_t merkle_stages = 0;
    size_t sumcheck_stages = 0;
    uint64_t h2d_bytes = 0;
    uint64_t d2h_bytes = 0;
    uint64_t device_bytes = 0;

    double
    totalCycles() const
    {
        return encoder_cycles + merkle_cycles + sumcheck_cycles;
    }

    size_t
    totalStages() const
    {
        return encoder_stages + merkle_stages + sumcheck_stages;
    }
};

/**
 * Per-proof work model of a @p kind proof over 2^n_vars-row tables: the
 * PCS shape comes from TensorPcs::colVarsFor, the constraint sum-check
 * cost from the protocol table's protocolSumcheckOps.
 */
SystemWorkModel protocolWorkModel(sched::ProtocolKind kind,
                                  unsigned n_vars, uint64_t seed);

/** The table-commit work model (protocolWorkModel of TableCommit). */
SystemWorkModel systemWorkModel(unsigned n_vars, uint64_t seed);

/**
 * Lower @p model into the scheduler's stage graph: encoder, Merkle,
 * Fiat-Shamir and sum-check as first-class stages with lane-cycle
 * costs, transfer byte budgets, and the Merkle host-staging buffer.
 * The Fiat-Shamir stage carries no lane-cycles and no pipeline depth
 * (its transcript hashing is amortized into the module costs).
 */
sched::StageGraph systemStageGraph(const SystemWorkModel &model);

/** Build one schedulable proof task for tables of 2^n_vars rows. */
sched::ProofTask makeProofTask(unsigned n_vars, uint64_t seed,
                               uint64_t id = 0, int priority = 0);

/** Build one schedulable proof task of the given protocol kind. */
sched::ProofTask makeProofTask(sched::ProtocolKind kind, unsigned n_vars,
                               uint64_t seed, uint64_t id = 0,
                               int priority = 0);

/** The paper's system: batch proof generation on the simulated GPU. */
class PipelinedZkpSystem
{
  public:
    PipelinedZkpSystem(gpusim::Device &dev, SystemOptions opt = {});

    /**
     * Attach observability sinks (either may be nullptr, the default):
     * @p metrics receives counters/gauges/histograms per run, @p trace
     * receives per-cycle spans on the encoder / Merkle / sum-check lane
     * tracks plus fault and retry instants. Both are pure observers —
     * proofs and simulated times are bit-identical with and without
     * them (pinned by test_obs, same discipline as the FaultInjector).
     * Neither is owned.
     */
    void setObservability(obs::MetricsRegistry *metrics,
                          obs::TraceRecorder *trace)
    {
        metrics_ = metrics;
        trace_ = trace;
    }

    /**
     * Generate proofs for @p batch instances of a random circuit whose
     * constraint tables have 2^n_vars rows.
     */
    SystemRunResult run(size_t batch, unsigned n_vars, Rng &rng);

    /**
     * Run a heterogeneous batch — tasks may mix n_vars (and priority)
     * freely — through the pipeline scheduler. Simulation only: no
     * functional proofs are produced (use run() for those). Per-task
     * admission/completion accounting lands in
     * SystemRunResult::task_stats; aggregate per-cycle columns report
     * the costliest task shape, which paces the pipeline.
     */
    SystemRunResult runTasks(std::vector<sched::ProofTask> tasks);

  private:
    /** Simulate @p tasks on the scheduler and fill @p result. */
    void simulate(std::vector<sched::ProofTask> tasks,
                  SystemRunResult &result);

    gpusim::Device &dev_;
    SystemOptions opt_;
    obs::MetricsRegistry *metrics_ = nullptr;
    obs::TraceRecorder *trace_ = nullptr;
};

/**
 * CPU baseline with the same computational modules (Orion's encoder and
 * Merkle trees + Arkworks' sum-check): one real proof measured on the
 * host, split into modules by its ExecContext regions. Large sizes are
 * sampled at @p measure_cap_vars and extrapolated linearly (documented
 * in DESIGN.md).
 */
class SameModulesCpuBaseline
{
  public:
    explicit SameModulesCpuBaseline(SystemOptions opt = {},
                                    unsigned measure_cap_vars = 16)
        : opt_(opt), cap_vars_(measure_cap_vars)
    {
    }

    /** @copydoc PipelinedZkpSystem::run */
    SystemRunResult run(size_t batch, unsigned n_vars, Rng &rng);

  private:
    SystemOptions opt_;
    unsigned cap_vars_;
};

} // namespace bzk

#endif // BZK_CORE_PIPELINEDSYSTEM_H_
