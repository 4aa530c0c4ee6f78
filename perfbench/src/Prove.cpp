/**
 * @file
 * The offline prove workloads: one proof at a time through the real
 * BN254 prover, each proof then serialized, deserialized and verified
 * by a freshly constructed verifier, as a client would.
 *
 *   prove-table-n16    Snark<Fr>, n_vars = 16, ExecContext over every
 *                      hardware thread (commit-heavy; the only
 *                      workload that enters exec's pool).
 *   prove-hdg-n16-1t   HighDegreeSnark<Fr>, n_vars = 16, one thread
 *                      (degree-6 sum-check's largest share; no pool).
 *
 * A traced run alternates untraced and traced proofs. Traced proofs
 * pass a ProveStageHook and read ExecContext region stats; the gap
 * between the two p10s is the tracing overhead.
 */

#include <array>
#include <optional>
#include <thread>

#include "Common.h"
#include "Helpers.h"
#include "core/DurableService.h"
#include "core/HighDegreeSnark.h"
#include "core/PipelinedSystem.h"
#include "core/Serialize.h"
#include "core/Snark.h"
#include "exec/ExecContext.h"
#include "ff/FieldBackend.h"
#include "hash/Sha256.h"
#include "util/ThreadPool.h"

namespace bzk::perfbench {

namespace {

/** Public encoder seed: the system's fixed parameters. */
constexpr uint64_t kPcsSeed = 2024;
/** Distinct instances, cycled through by the timed loop. */
constexpr size_t kInstances = 4;
/** Set-ups timed after each proof; setup_s is the median of all. */
constexpr size_t kSetupsPerProof = 5;
/** Proofs run even when --seconds has already passed. */
constexpr size_t kMinProofs = 3;
/** Leading proofs whose bytes the printed SHA-256 covers. */
constexpr size_t kDigestProofs = 2;

struct TableKind
{
    using Prover = Snark<Fr>;
    using Proof = SnarkProof<Fr>;
    static constexpr const char *kName = "table-commit";

    static ConstraintTables<Fr>
    instance(unsigned n_vars, Rng &rng)
    {
        return randomInstance(n_vars, rng);
    }

    static std::vector<uint8_t>
    encode(const Proof &p)
    {
        return serializeProof(p);
    }

    static std::optional<Proof>
    decode(std::span<const uint8_t> b)
    {
        return deserializeProof<Fr>(b);
    }
};

struct HighDegreeKind
{
    using Prover = HighDegreeSnark<Fr>;
    using Proof = HighDegreeProof<Fr>;
    static constexpr const char *kName = "high-degree-gate";

    static ConstraintTables<Fr>
    instance(unsigned n_vars, Rng &rng)
    {
        return highDegreeInstance<Fr>(n_vars, rng);
    }

    static std::vector<uint8_t>
    encode(const Proof &p)
    {
        return serializeHighDegreeProof(p);
    }

    static std::optional<Proof>
    decode(std::span<const uint8_t> b)
    {
        return deserializeHighDegreeProof<Fr>(b);
    }
};

/** The wide-field kernel counts the benchmark reports, in order. */
using WideCounts = std::array<uint64_t, 6>;

WideCounts
wideCounts()
{
    ff::KernelCounters k = ff::kernelCounters();
    return {k.wide_mul_lanes, k.wide_fold_lanes, k.wide_sum_lanes,
            k.wide_dot_lanes, k.wide_axpy_lanes, k.wide_batch_inverse};
}

WideCounts
minus(const WideCounts &a, const WideCounts &b)
{
    WideCounts d{};
    for (size_t i = 0; i < d.size(); ++i)
        d[i] = a[i] - b[i];
    return d;
}

constexpr const char *kWideNames[6] = {
    "ff.wide_mul_lanes_calls",  "ff.wide_fold_lanes_calls",
    "ff.wide_sum_lanes_calls",  "ff.wide_dot_lanes_calls",
    "ff.wide_axpy_lanes_calls", "ff.wide_batch_inverse_calls",
};

/** Per-stage samples of traced proofs. */
struct LayerSamples
{
    std::vector<double> commit, fiat_shamir, sumcheck, open;
    std::vector<double> commit_share, sumcheck_share, open_share;
    std::vector<double> enc_wall, enc_busy, merkle_wall, merkle_busy;
    std::vector<double> efficiency, pf_calls;
};

template <typename Kind>
Report
runProve(const RunOptions &opt, unsigned n_vars, size_t threads)
{
    Report report;
    report.note("workload %s: %s proofs, n_vars=%u, threads=%zu, seed=%llu",
                opt.workload.c_str(), Kind::kName, n_vars, threads,
                static_cast<unsigned long long>(opt.seed));

    // Inputs first, before any timing: the seed picks the task ids, the
    // task ids pick the instances, as in the served path.
    std::vector<ConstraintTables<Fr>> instances;
    for (size_t i = 0; i < kInstances; ++i) {
        Rng rng = taskInstanceRng(opt.seed * kInstances + i, kPcsSeed,
                                  n_vars);
        instances.push_back(Kind::instance(n_vars, rng));
    }

    // One timed set-up: pool start, execution context and prover
    // construction. ExecContext takes its pool from a process-wide cache,
    // so only the first context starts threads; each set-up therefore
    // also starts a pool of the same size, as that first context does, and
    // stops it after the clock is read. The first set-up builds what the
    // run uses. The rest follow each proof: a burst of set-ups lasts a few
    // milliseconds and would sample the shared host's speed at one moment.
    std::vector<double> setup_s;
    using Prover = typename Kind::Prover;
    auto setUp = [&](std::optional<exec::ExecContext> &exec,
                     std::optional<Prover> &prover) {
        std::optional<ThreadPool> pool;
        double t = nowMs();
        if (threads > 1)
            pool.emplace(threads);
        exec.emplace(exec::ExecConfig{.threads = threads});
        prover.emplace(n_vars, kPcsSeed);
        prover->setExec(&*exec);
        setup_s.push_back((nowMs() - t) / 1e3);
    };
    std::optional<exec::ExecContext> exec;
    std::optional<Prover> prover;
    setUp(exec, prover);

    // Warm-up, untimed: one full prove -> verify round.
    {
        auto bytes = Kind::encode(prover->prove(instances[0], {}));
        Prover verifier(n_vars, kPcsSeed);
        auto proof = Kind::decode(bytes);
        if (!proof || !verifier.verify(*proof, {}))
            report.fail("warm-up proof did not verify");
    }

    std::vector<double> prove_ms, traced_prove_ms, verify_ms, e2e_ms, cpu_ms;
    std::vector<double> encode_ms, decode_ms, verify_only_ms;
    LayerSamples layers;
    std::optional<WideCounts> counts;
    std::optional<size_t> proof_size;
    double bytes_total = 0.0;
    Sha256 digest;
    SpanLog spans;

    double start = nowMs();
    size_t proofs = 0;
    for (; proofs < kMinProofs || nowMs() - start < opt.seconds * 1e3;
         ++proofs) {
        const auto &inst = instances[proofs % kInstances];
        bool traced = opt.trace && proofs % 2 == 1;
        std::array<double, 4> stage_ms{};
        auto hook = [&](ProveStage stage) {
            stage_ms[static_cast<size_t>(stage)] = nowMs();
            return true;
        };

        if (traced)
            exec->resetStats();
        WideCounts before = wideCounts();
        double cpu0 = cpuMs();
        double t0 = nowMs();
        typename Kind::Proof proof =
            traced ? *prover->proveInterruptible(inst, {}, hook)
                   : prover->prove(inst, {});
        double t1 = nowMs();
        WideCounts delta = minus(wideCounts(), before);
        std::vector<uint8_t> bytes = Kind::encode(proof);
        double t2 = nowMs();
        auto decoded = Kind::decode(bytes);
        double t3 = nowMs();
        Prover verifier(n_vars, kPcsSeed);
        double t4 = nowMs();
        bool ok = decoded && verifier.verify(*decoded, {});
        double t5 = nowMs();
        cpu_ms.push_back(cpuMs() - cpu0);
        for (size_t i = 0; i < kSetupsPerProof; ++i) {
            std::optional<exec::ExecContext> other_exec;
            std::optional<Prover> other_prover;
            setUp(other_exec, other_prover);
        }

        if (!ok) {
            ++report.failed;
            report.fail("proof " + std::to_string(proofs) +
                        " did not verify");
        }
        if (counts && *counts != delta)
            report.fail("ff kernel counts differ between proofs");
        if (proof_size && *proof_size != bytes.size())
            report.fail("proof sizes differ between proofs");
        counts = delta;
        proof_size = bytes.size();
        bytes_total += static_cast<double>(bytes.size());
        if (proofs < kDigestProofs)
            digest.update(bytes);

        (traced ? traced_prove_ms : prove_ms).push_back(t1 - t0);
        verify_ms.push_back(t5 - t2);
        e2e_ms.push_back(t5 - t0);
        encode_ms.push_back(t2 - t1);
        decode_ms.push_back(t3 - t2);
        verify_only_ms.push_back(t5 - t4);
        if (!traced)
            continue;

        double merkle = stage_ms[size_t(ProveStage::Merkle)];
        double fs = stage_ms[size_t(ProveStage::FiatShamir)];
        double sc = stage_ms[size_t(ProveStage::Sumcheck)];
        double total = t1 - t0;
        layers.commit.push_back(merkle - t0);
        layers.fiat_shamir.push_back(fs - merkle);
        layers.sumcheck.push_back(sc - fs);
        layers.open.push_back(t1 - sc);
        layers.commit_share.push_back((merkle - t0) / total);
        layers.sumcheck_share.push_back((sc - fs) / total);
        layers.open_share.push_back((t1 - sc) / total);
        exec::RegionStats enc = exec->stats("encoder");
        exec::RegionStats mrk = exec->stats("merkle");
        layers.enc_wall.push_back(enc.wall_ms);
        layers.enc_busy.push_back(enc.busy_ms);
        layers.merkle_wall.push_back(mrk.wall_ms);
        layers.merkle_busy.push_back(mrk.busy_ms);
        layers.efficiency.push_back(exec->parallelEfficiency());
        layers.pf_calls.push_back(
            static_cast<double>(exec->totals().calls));

        const std::string track = "host:proof";
        spans.add(track, "prove", "core", proofs, t0, t1);
        spans.add(track, "commit", "core", proofs, t0, merkle);
        spans.add(track, "fiat_shamir", "core", proofs, merkle, fs);
        spans.add(track, "sumcheck", "core", proofs, fs, sc);
        spans.add(track, "open", "core", proofs, sc, t1);
        spans.add(track, "serialize", "serialize", proofs, t1, t2);
        spans.add(track, "deserialize", "serialize", proofs, t2, t3);
        spans.add(track, "verifier_setup", "verify", proofs, t3, t4);
        spans.add(track, "verify", "verify", proofs, t4, t5);
    }
    double wall_s = (nowMs() - start) / 1e3;

    report.attempted = proofs;
    report.note("proofs=%zu in %.3f s (%.4f proofs/s); "
                "proof_sha256(first %zu)=%s",
                proofs, wall_s, static_cast<double>(proofs) / wall_s,
                kDigestProofs, digest.finalize().toHex().c_str());
    std::vector<double> setup_ms;
    for (double s : setup_s)
        setup_ms.push_back(s * 1e3);
    report.notes.push_back(quantileNote("set-up", setup_ms));
    report.notes.push_back(quantileNote("prove", prove_ms));
    report.notes.push_back(quantileNote("verify", verify_ms));
    report.notes.push_back(quantileNote("e2e", e2e_ms));
    report.notes.push_back(quantileNote("cpu per proof", cpu_ms));

    report.set("setup_s", median(setup_s));
    report.set("prove_ms_p10", percentile(prove_ms, kLowQuantile));
    report.set("verify_ms_p10", percentile(verify_ms, kLowQuantile));
    report.set("e2e_ms_p10", percentile(e2e_ms, kLowQuantile));
    report.set("cpu_ms_per_proof_p10", percentile(cpu_ms, kLowQuantile));
    report.set("proof_bytes", bytes_total / static_cast<double>(proofs));
    report.set("peak_rss_mb", peakRssMiB());
    if (!opt.trace)
        return report;

    report.note("traced proofs=%zu, untraced proofs=%zu",
                traced_prove_ms.size(), prove_ms.size());
    report.set("core.commit_ms", median(layers.commit));
    report.set("core.fiat_shamir_ms", median(layers.fiat_shamir));
    report.set("core.sumcheck_ms", median(layers.sumcheck));
    report.set("core.open_ms", median(layers.open));
    report.set("core.commit_share", median(layers.commit_share));
    report.set("core.sumcheck_share", median(layers.sumcheck_share));
    report.set("core.open_share", median(layers.open_share));
    report.set("encoder.wall_ms", median(layers.enc_wall));
    report.set("encoder.busy_ms", median(layers.enc_busy));
    report.set("merkle.wall_ms", median(layers.merkle_wall));
    report.set("merkle.busy_ms", median(layers.merkle_busy));
    for (size_t i = 0; i < counts->size(); ++i)
        report.set(kWideNames[i], static_cast<double>((*counts)[i]));
    report.set("exec.parallel_efficiency", median(layers.efficiency));
    report.set("exec.parallel_for_calls", median(layers.pf_calls));
    report.set("serialize.encode_ms", median(encode_ms));
    report.set("serialize.decode_ms", median(decode_ms));
    report.set("verify.ms", median(verify_only_ms));
    for (const auto &def : perLayerMetrics()) {
        std::string name = def.name;
        if (name.starts_with("net.") || name.starts_with("loadgen."))
            report.set(name, 0.0);
    }
    report.set("trace.overhead_ms",
               percentile(traced_prove_ms, kLowQuantile) -
                   percentile(prove_ms, kLowQuantile));
    finishTrace(spans, opt, report);
    return report;
}

} // namespace

Report
runProveWorkload(const RunOptions &opt)
{
    if (opt.workload == "prove-table-n16") {
        size_t hw = std::thread::hardware_concurrency();
        return runProve<TableKind>(opt, 16, hw > 0 ? hw : 1);
    }
    return runProve<HighDegreeKind>(opt, 16, 1);
}

} // namespace bzk::perfbench
