#include "zkml/MlService.h"

#include "core/Protocol.h"
#include "exec/ExecContext.h"
#include "obs/Metrics.h"
#include "util/Log.h"
#include "zkml/CircuitCompiler.h"

namespace bzk {

VerifiableMlService::VerifiableMlService(gpusim::Device &dev, Rng &rng,
                                         SystemOptions opt)
    : dev_(dev), opt_(opt), model_(rng)
{
    // Preprocessing (Sec. 5): Merkle-commit the model parameters. The
    // root binds the provider: every proof's circuit includes the
    // committed weights, so substituting a model changes the root.
    exec::ExecConfig exec_cfg;
    exec_cfg.threads = opt_.threads;
    exec::ExecContext exec(exec_cfg);
    MerkleTree tree = MerkleTree::build(model_.weightBytes(), &exec);
    model_root_ = tree.root();

    size_t gates = model_.proofGateCount();
    n_vars_ = 0;
    while ((size_t{1} << n_vars_) < gates)
        ++n_vars_;
    inform("VerifiableMlService: VGG-16 with %zu MACs compiles to "
           "%zu proof gates (2^%u table)",
           model_.macCount(), gates, n_vars_);
}

MlServiceBatchResult
VerifiableMlService::serveBatch(size_t batch, Rng &rng,
                                size_t functional_proofs)
{
    MlServiceBatchResult result;
    // Prediction phase: the ML engine answers every request (real
    // fixed-point inference; one per batch element would dominate the
    // host here, so we serve a handful and reuse the engine's output
    // pattern for sizing — the proving cost does not depend on pixel
    // values).
    size_t engine_runs = std::min<size_t>(batch, 2);
    for (size_t i = 0; i < engine_runs; ++i) {
        Tensor image = Vgg16::randomImage(rng);
        result.predictions.push_back(model_.predict(image));
    }

    // Proving phase: one scheduler task per prediction at the compiled
    // circuit scale, submitted through the heterogeneous-batch API.
    // Functional proving at VGG scale is out of reach on this host; the
    // tiny-CNN end-to-end path is exercised in tests/examples instead
    // (see DESIGN.md).
    SystemOptions opt = opt_;
    opt.functional = 0;
    PipelinedZkpSystem system(dev_, opt);
    system.setObservability(metrics_, trace_);
    std::vector<sched::ProofTask> tasks;
    tasks.reserve(batch);
    for (size_t i = 0; i < batch; ++i)
        tasks.push_back(makeProofTask(n_vars_, opt.seed, i));
    result.proving = system.runTasks(std::move(tasks));

    if (metrics_) {
        auto &reg = *metrics_;
        reg.counter("bzk_ml_predictions_total",
                    "customer predictions served")
            .add(static_cast<double>(batch));
        reg.counter("bzk_ml_functional_proofs_total",
                    "real reduced-CNN proofs generated")
            .add(static_cast<double>(functional_proofs));
    }

    // Optionally exercise the full Figure 8 loop cryptographically on
    // a reduced CNN: real circuit, real proof, real verification.
    if (functional_proofs > 0) {
        constexpr auto kKind = sched::ProtocolKind::TableCommit;
        CnnModel tiny(CnnConfig::tiny(), rng);
        auto compiled = compileCnn<Fr>(tiny);
        auto witness = witnessFromModel<Fr>(tiny);
        exec::ExecConfig exec_cfg;
        exec_cfg.threads = opt_.threads;
        exec::ExecContext exec(exec_cfg);
        for (size_t i = 0; i < functional_proofs; ++i) {
            Tensor image(tiny.config().in_channels,
                         tiny.config().in_height, tiny.config().in_width);
            for (auto &p : image.data)
                p = static_cast<int64_t>(rng.nextBounded(8));
            auto inputs = inputsFromTensor<Fr>(image);
            auto assignment = compiled.circuit.evaluate(inputs, witness);
            auto tables = compiled.circuit.buildTables(assignment);
            auto proof = *proveTables(kKind, tables, opt_.seed, inputs,
                                      exec);
            result.functional_verified =
                result.functional_verified &&
                verifyProof(kKind, proof, tables.n_vars, opt_.seed,
                            inputs);
            ++result.functional_proofs;
        }
    }
    return result;
}

} // namespace bzk
