#include "core/PipelinedSystem.h"

#include <algorithm>
#include <cmath>

#include "core/Protocol.h"
#include "core/TensorPcs.h"
#include "encoder/GpuEncoder.h"
#include "exec/ExecContext.h"
#include "ff/FieldBackend.h"
#include "gpusim/Calibration.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sched/LaneAllocator.h"
#include "util/Log.h"
#include "util/Timer.h"

namespace bzk {

using gpusim::BatchStats;

SystemWorkModel
protocolWorkModel(sched::ProtocolKind kind, unsigned n_vars, uint64_t seed)
{
    unsigned col_vars = TensorPcs<Fr>::colVarsFor(n_vars);
    size_t m = size_t{1} << col_vars;
    size_t k = size_t{1} << (n_vars - col_vars);
    double n_entries = static_cast<double>(size_t{1} << n_vars);

    SystemWorkModel model;

    // Encoder: 3 tables, each k row-messages of length m.
    EncoderTopology topo(m, seed);
    auto stages = encoderStageCosts(topo);
    double per_code = 0.0;
    for (const auto &s : stages)
        per_code += s.lane_cycles_sorted;
    model.encoder_cycles = 3.0 * static_cast<double>(k) * per_code;
    model.encoder_stages = stages.size();

    // Merkle: 3 trees; hashing 2m codeword columns of k elements each
    // (k*32/64 compressions per column) plus the tree over 2m leaves.
    double col_compress = static_cast<double>(k) / 2.0;
    double per_tree = 2.0 * m * col_compress + (2.0 * m - 1.0);
    model.merkle_cycles = 3.0 * per_tree * gpusim::kSha256CompressCycles;
    size_t merkle_layers = 1;
    for (size_t v = 2 * m; v > 1; v >>= 1)
        ++merkle_layers;
    model.merkle_stages = merkle_layers;

    // Sum-check: the gate's constraint sum-check over 2^n rows, and the
    // PCS row-combination passes (2 combos x 3 tables).
    SumcheckOps ops = protocolSumcheckOps(kind);
    double per_pair = ops.muls * gpusim::kFieldMulCycles +
                      ops.adds * gpusim::kFieldAddCycles +
                      3.0 * gpusim::kGlobalAccessCycles;
    double combos = 6.0 * n_entries *
                    (gpusim::kFieldMulCycles + gpusim::kFieldAddCycles);
    model.sumcheck_cycles = n_entries * per_pair + combos;
    model.sumcheck_stages = n_vars + 2;

    // Dynamic loading per cycle: the three constraint tables plus the
    // Lagrange-encoded intermediate results of the proving function
    // (Sec. 4) — sized to match the paper's reported 320 MB per cycle
    // at S = 2^20 (Table 9).
    model.h2d_bytes = static_cast<uint64_t>(10.0 * n_entries * 32.0);
    model.d2h_bytes =
        static_cast<uint64_t>(n_entries * 16.0) + (uint64_t{1} << 20);

    // Device residency (Table 10): the streamed per-cycle data is
    // consumed stage by stage, so only the live stage slices stay
    // resident — ~3 table-equivalents — plus a fixed floor for the
    // encoder graphs, Merkle staging and runtime buffers.
    model.device_bytes =
        static_cast<uint64_t>(96.0 * n_entries) + (64ULL << 20);
    return model;
}

SystemWorkModel
systemWorkModel(unsigned n_vars, uint64_t seed)
{
    return protocolWorkModel(sched::ProtocolKind::TableCommit, n_vars,
                             seed);
}

sched::StageGraph
systemStageGraph(const SystemWorkModel &model)
{
    sched::StageGraph graph;
    // All streamed input (the three constraint tables plus Lagrange
    // intermediates) enters at the encoder; the finished Merkle layers
    // stream back to a host-staging buffer (dynamic loading, Sec. 4).
    graph.addStage({sched::StageKind::Encoder, model.encoder_cycles,
                    model.encoder_stages, model.h2d_bytes, 0, 0});
    graph.addStage({sched::StageKind::Merkle, model.merkle_cycles,
                    model.merkle_stages, 0, model.d2h_bytes,
                    model.d2h_bytes});
    // Fiat-Shamir is a first-class node but contributes no lane-cycles
    // and no pipeline depth: transcript hashing is amortized into the
    // module costs on either side.
    graph.addStage({sched::StageKind::FiatShamir, 0.0, 0, 0, 0, 0});
    graph.addStage({sched::StageKind::Sumcheck, model.sumcheck_cycles,
                    model.sumcheck_stages, 0, 0, 0});
    graph.setDeviceBytes(model.device_bytes);
    return graph;
}

sched::ProofTask
makeProofTask(unsigned n_vars, uint64_t seed, uint64_t id, int priority)
{
    return makeProofTask(sched::ProtocolKind::TableCommit, n_vars, seed,
                         id, priority);
}

sched::ProofTask
makeProofTask(sched::ProtocolKind kind, unsigned n_vars, uint64_t seed,
              uint64_t id, int priority)
{
    sched::ProofTask task;
    task.id = id;
    task.n_vars = n_vars;
    task.priority = priority;
    task.kind = kind;
    task.graph = systemStageGraph(protocolWorkModel(kind, n_vars, seed));
    return task;
}

PipelinedZkpSystem::PipelinedZkpSystem(gpusim::Device &dev,
                                       SystemOptions opt)
    : dev_(dev), opt_(opt)
{
}

SystemRunResult
PipelinedZkpSystem::run(size_t batch, unsigned n_vars, Rng &rng)
{
    SystemRunResult result;

    // Functional proofs through the protocol table on the real prover
    // (multi-core host), then verified, up to tables of 2^14 rows.
    if (n_vars <= 14) {
        constexpr auto kKind = sched::ProtocolKind::TableCommit;
        size_t count = std::min(batch, opt_.functional);
        exec::ExecConfig exec_cfg;
        exec_cfg.threads = opt_.threads;
        exec::ExecContext exec(exec_cfg);
        for (size_t i = 0; i < count; ++i) {
            auto tables = randomInstance(n_vars, rng);
            auto proof = *proveTables(kKind, tables, opt_.seed, {}, exec);
            result.verified = result.verified &&
                              verifyProof(kKind, proof, n_vars, opt_.seed);
            result.proofs.push_back(std::move(proof));
        }
        if (metrics_ && count > 0) {
            metrics_
                ->gauge("bzk_host_threads",
                        "host threads used by the functional prover")
                .set(static_cast<double>(exec.threads()));
            metrics_
                ->gauge("bzk_host_parallel_efficiency",
                        "busy / (wall * threads) over host regions")
                .set(exec.parallelEfficiency());
            metrics_
                ->gauge("bzk_host_encoder_ms",
                        "host wall ms in encoder regions")
                .set(exec.stats("encoder").wall_ms);
            metrics_
                ->gauge("bzk_host_merkle_ms",
                        "host wall ms in Merkle regions")
                .set(exec.stats("merkle").wall_ms);
            metrics_
                ->gauge("bzk_host_sumcheck_ms",
                        "host wall ms in sum-check regions")
                .set(exec.stats("sumcheck").wall_ms);
            metrics_
                ->gauge("bzk_host_open_ms",
                        "host wall ms in PCS opening regions")
                .set(exec.stats("open").wall_ms);
            ff::KernelCounters fc = ff::kernelCounters();
            metrics_
                ->gauge("bzk_field_backend",
                        "active Fr/Fq field kernel backend "
                        "(0=scalar 2=ifma)")
                .set(static_cast<double>(
                    static_cast<int>(ff::activeBackend())));
            metrics_
                ->gauge("bzk_field_lanes",
                        "field elements per packed op on the active "
                        "backend")
                .set(static_cast<double>(
                    ff::backendLanes(ff::activeBackend())));
            metrics_
                ->gauge("bzk_field_wide_add_calls",
                        "Fr/Fq addLanes kernel calls")
                .set(static_cast<double>(fc.wide_add_lanes));
            metrics_
                ->gauge("bzk_field_wide_sub_calls",
                        "Fr/Fq subLanes kernel calls")
                .set(static_cast<double>(fc.wide_sub_lanes));
            metrics_
                ->gauge("bzk_field_wide_mul_calls",
                        "Fr/Fq mulLanes kernel calls")
                .set(static_cast<double>(fc.wide_mul_lanes));
            metrics_
                ->gauge("bzk_field_wide_fold_calls",
                        "Fr/Fq foldLanes kernel calls")
                .set(static_cast<double>(fc.wide_fold_lanes));
            metrics_
                ->gauge("bzk_field_wide_axpy_calls",
                        "Fr/Fq axpyLanes kernel calls")
                .set(static_cast<double>(fc.wide_axpy_lanes));
            metrics_
                ->gauge("bzk_field_wide_sum_calls",
                        "Fr/Fq sumLanes kernel calls")
                .set(static_cast<double>(fc.wide_sum_lanes));
            metrics_
                ->gauge("bzk_field_wide_dot_calls",
                        "Fr/Fq dotLanes kernel calls")
                .set(static_cast<double>(fc.wide_dot_lanes));
            metrics_
                ->gauge("bzk_field_wide_batch_inverse_calls",
                        "Fr/Fq batchInverse calls")
                .set(static_cast<double>(fc.wide_batch_inverse));
        }
    }

    SystemWorkModel model = systemWorkModel(n_vars, opt_.seed);
    sched::StageGraph graph = systemStageGraph(model);
    std::vector<sched::ProofTask> tasks;
    tasks.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
        sched::ProofTask task;
        task.id = i;
        task.n_vars = n_vars;
        task.graph = graph;
        tasks.push_back(std::move(task));
    }
    simulate(std::move(tasks), result);
    return result;
}

SystemRunResult
PipelinedZkpSystem::runTasks(std::vector<sched::ProofTask> tasks)
{
    SystemRunResult result;
    simulate(std::move(tasks), result);
    return result;
}

void
PipelinedZkpSystem::simulate(std::vector<sched::ProofTask> tasks,
                             SystemRunResult &result)
{
    size_t batch = tasks.size();
    if (batch == 0)
        return;

    // Reference shape for the aggregate columns: the costliest task
    // paces the pipeline (for uniform batches it is the batch's
    // shape). Copied out because the tasks move into the scheduler.
    const sched::StageGraph *pace = &tasks.front().graph;
    for (const sched::ProofTask &t : tasks)
        if (t.graph.totalCycles() > pace->totalCycles())
            pace = &t.graph;
    sched::StageGraph ref_graph = *pace;
    const sched::StageGraph *ref = &ref_graph;

    double cores = dev_.spec().cuda_cores;
    double total = ref->totalCycles();

    // Static lane partition proportional to module cost (Sec. 4's
    // "35 : 12 : 113" method, derived from the stage graph itself).
    // Non-proportional policies report their global kind partition
    // instead, so the lanes_* columns show the split actually applied.
    sched::LaneAllocator allocator(cores);
    if (opt_.lane_policy == sched::LanePolicy::Proportional) {
        std::vector<double> split = allocator.proportionalSplit(*ref);
        const auto &stages = ref->stages();
        for (size_t i = 0; i < stages.size(); ++i) {
            switch (stages[i].kind) {
              case sched::StageKind::Encoder:
                result.lanes_encoder = split[i];
                break;
              case sched::StageKind::Merkle:
                result.lanes_merkle = split[i];
                break;
              case sched::StageKind::Sumcheck:
                result.lanes_sumcheck = split[i];
                break;
              case sched::StageKind::FiatShamir:
                break;
            }
        }
    } else {
        sched::StageKindCosts kind_lanes = allocator.kindSplit(
            opt_.lane_policy == sched::LanePolicy::FixedRatio
                ? sched::LaneAllocator::paperRatioWeights()
                : sched::LaneAllocator::measuredKindCosts(tasks));
        result.lanes_encoder =
            kind_lanes[static_cast<size_t>(sched::StageKind::Encoder)];
        result.lanes_merkle =
            kind_lanes[static_cast<size_t>(sched::StageKind::Merkle)];
        result.lanes_sumcheck =
            kind_lanes[static_cast<size_t>(sched::StageKind::Sumcheck)];
    }

    double cycle_cycles = total / cores;
    double cycle_ms =
        cycle_cycles / dev_.spec().cyclesPerMs() + gpusim::kKernelLaunchMs;
    size_t depth = ref->totalDepth();
    uint64_t h2d_bytes = ref->h2dBytes();
    uint64_t d2h_bytes = ref->d2hBytes();

    sched::SchedulerOptions sched_opt;
    sched_opt.seed = opt_.seed;
    sched_opt.overlap_transfers = opt_.overlap_transfers;
    sched_opt.dynamic_loading = opt_.dynamic_loading;
    sched_opt.lane_policy = opt_.lane_policy;
    sched::PipelineScheduler scheduler(dev_, sched_opt);
    scheduler.setObservability(metrics_, trace_);
    sched::SchedulerResult sr = scheduler.run(std::move(tasks));

    result.degraded_cycles = sr.degraded_cycles;
    result.relocated_lane_fraction = sr.relocated_lane_fraction;
    result.corrupt_detected = sr.corrupt_detected;
    result.retried_tasks = sr.retried_tasks;
    result.task_stats = std::move(sr.tasks);

    result.stats.batch = batch;
    result.stats.total_ms = sr.total_ms;
    result.stats.first_latency_ms = sr.first_latency_ms;
    result.stats.item_latency_ms = static_cast<double>(depth) * cycle_ms;
    result.stats.throughput_per_ms = batch / result.stats.total_ms;
    result.stats.peak_device_bytes = sr.peak_device_bytes;
    result.stats.busy_lane_ms = sr.busy_lane_ms;
    result.stats.utilization = sr.utilization;

    double per_ms = dev_.spec().cyclesPerMs() * cores;
    result.encoder_ms = ref->cyclesOf(sched::StageKind::Encoder) / per_ms;
    result.merkle_ms = ref->cyclesOf(sched::StageKind::Merkle) / per_ms;
    result.sumcheck_ms =
        ref->cyclesOf(sched::StageKind::Sumcheck) / per_ms;
    result.comm_ms_per_cycle = dev_.copyDurationMs(h2d_bytes) +
                               dev_.copyDurationMs(d2h_bytes);
    result.comp_ms_per_cycle = cycle_ms;
    result.cycle_ms = std::max(result.comp_ms_per_cycle,
                               dev_.copyDurationMs(h2d_bytes));
    result.h2d_bytes_per_cycle = h2d_bytes;

    if (metrics_) {
        metrics_->counter("bzk_cycles_total", "pipeline cycles run")
            .add(static_cast<double>(sr.cycles_run));
        metrics_->counter("bzk_tasks_total", "proof tasks admitted")
            .add(static_cast<double>(sr.admitted));
        metrics_
            ->counter("bzk_degraded_cycles_total",
                      "cycles run with failed lanes")
            .add(static_cast<double>(result.degraded_cycles));
        metrics_
            ->counter("bzk_retried_tasks_total",
                      "tasks re-proved after a failed root re-check")
            .add(static_cast<double>(result.retried_tasks));
        metrics_
            ->counter("bzk_corrupt_detected_total",
                      "corrupted staged layers caught")
            .add(static_cast<double>(result.corrupt_detected));
        metrics_
            ->counter("bzk_h2d_bytes_total",
                      "host-to-device bytes streamed")
            .add(static_cast<double>(sr.h2d_bytes_streamed));
        metrics_->gauge("bzk_utilization", "busy-lane fraction of makespan")
            .set(result.stats.utilization);
        metrics_
            ->gauge("bzk_throughput_proofs_per_ms",
                    "proofs per millisecond over the run")
            .set(result.stats.throughput_per_ms);
        metrics_
            ->gauge("bzk_lane_split_encoder", "lanes held by the encoders")
            .set(result.lanes_encoder);
        metrics_
            ->gauge("bzk_lane_split_merkle",
                    "lanes held by the Merkle modules")
            .set(result.lanes_merkle);
        metrics_
            ->gauge("bzk_lane_split_sumcheck",
                    "lanes held by the sum-check modules")
            .set(result.lanes_sumcheck);
    }
}

SystemRunResult
SameModulesCpuBaseline::run(size_t batch, unsigned n_vars, Rng &rng)
{
    SystemRunResult result;
    unsigned nm = std::min(n_vars, cap_vars_);
    double scale = std::pow(2.0, static_cast<double>(n_vars) -
                                     static_cast<double>(nm));

    auto tables = randomInstance(nm, rng);

    // Multi-core host baseline, like the Orion/Arkworks provers the
    // paper measures; thread count from opt_.threads / BZK_THREADS.
    exec::ExecConfig exec_cfg;
    exec_cfg.threads = opt_.threads;
    exec::ExecContext exec(exec_cfg);

    // One real proof, measured. Its commits account the row encodings
    // to the "encoder" region and the column hashes and trees to
    // "merkle"; sum-check time = total - encoder - merkle.
    Snark<Fr> snark(nm, opt_.seed);
    snark.setExec(&exec);
    Timer total_timer;
    auto proof = snark.prove(tables, {});
    double total_ms = total_timer.milliseconds();
    double enc_ms = exec.stats("encoder").wall_ms;
    double merkle_ms = exec.stats("merkle").wall_ms;
    result.verified = snark.verify(proof, {});

    double sc_ms = std::max(0.0, total_ms - enc_ms - merkle_ms);

    result.encoder_ms = enc_ms * scale;
    result.merkle_ms = merkle_ms * scale;
    result.sumcheck_ms = sc_ms * scale;
    result.stats.batch = batch;
    result.stats.total_ms = total_ms * scale * static_cast<double>(batch);
    result.stats.first_latency_ms = total_ms * scale;
    result.stats.item_latency_ms = total_ms * scale;
    result.stats.throughput_per_ms = 1.0 / (total_ms * scale);
    return result;
}

} // namespace bzk
