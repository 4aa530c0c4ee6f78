/**
 * @file
 * Host-parallel thread sweep: throughput of the three real host
 * modules (Merkle build, sum-check prover, Spielman encoder) at 1, 2,
 * and 4 threads on this machine's ExecContext pool. This is the bench
 * behind the PR's "2x module throughput at 4 threads" acceptance
 * criterion; the checked-in baseline pins the speedup columns (which
 * transfer across machines) rather than absolute throughput.
 *
 * Results are bit-identical across thread counts by construction
 * (fixed-shape reductions); the roots/transcripts are cross-checked
 * here as a belt-and-braces guard on top of the unit tests.
 */

#include <algorithm>

#include "bench/BenchUtil.h"
#include "encoder/SpielmanCode.h"
#include "exec/ExecContext.h"
#include "ff/Fields.h"
#include "hash/Transcript.h"
#include "merkle/MerkleTree.h"
#include "poly/Multilinear.h"
#include "sumcheck/Sumcheck.h"
#include "util/Rng.h"
#include "util/Timer.h"

using namespace bzk;
using namespace bzk::bench;

namespace {

constexpr size_t kMerkleBlocks = size_t{1} << 14;
constexpr unsigned kSumcheckVars = 16;
constexpr size_t kEncoderK = size_t{1} << 13;
constexpr size_t kEncoderReps = 8;

/** Median-of-3 wall time of @p fn, ms. */
template <typename Fn>
double
timeMs(Fn &&fn)
{
    double best[3];
    for (double &t : best) {
        Timer timer;
        fn();
        t = timer.milliseconds();
    }
    std::sort(best, best + 3);
    return best[1];
}

struct ModuleResult
{
    double ms = 0.0;
    double efficiency = 1.0;
};

ModuleResult
runMerkle(const std::vector<uint8_t> &data, size_t threads,
          Digest *root_out)
{
    exec::ExecConfig cfg;
    cfg.threads = threads;
    exec::ExecContext exec(cfg);
    ModuleResult res;
    res.ms = timeMs([&] {
        MerkleTree tree = MerkleTree::build(data, &exec);
        *root_out = tree.root();
    });
    res.efficiency = exec.parallelEfficiency();
    return res;
}

ModuleResult
runSumcheck(const Multilinear<Fr> &poly, size_t threads, Fr *pin_out)
{
    exec::ExecConfig cfg;
    cfg.threads = threads;
    exec::ExecContext exec(cfg);
    ModuleResult res;
    res.ms = timeMs([&] {
        Transcript transcript("bench_host.sumcheck");
        auto proof = proveSumcheckFs(poly, transcript, &exec);
        *pin_out = proof.proof.rounds.back().back();
    });
    res.efficiency = exec.parallelEfficiency();
    return res;
}

ModuleResult
runEncoder(const SpielmanCode<Fr> &code, const std::vector<Fr> &msg,
           size_t threads, Fr *pin_out)
{
    exec::ExecConfig cfg;
    cfg.threads = threads;
    exec::ExecContext exec(cfg);
    ModuleResult res;
    res.ms = timeMs([&] {
        for (size_t rep = 0; rep < kEncoderReps; ++rep) {
            auto cw = code.encode(msg, &exec);
            *pin_out = cw.back();
        }
    });
    res.efficiency = exec.parallelEfficiency();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    size_t max_threads = applyThreadsFlag(argc, argv);
    JsonBench json("bench_host", argc, argv);
    json.meta("max_threads", std::to_string(max_threads));

    Rng rng(0xb057);
    std::vector<uint8_t> merkle_data(kMerkleBlocks * 64);
    for (auto &b : merkle_data)
        b = static_cast<uint8_t>(rng.next());
    auto poly = Multilinear<Fr>::random(kSumcheckVars, rng);
    SpielmanCode<Fr> code(kEncoderK, 0xbeef);
    std::vector<Fr> msg(kEncoderK);
    for (auto &m : msg)
        m = Fr::random(rng);

    const size_t sweep[] = {1, 2, 4};
    TablePrinter table({"Module", "1t ms", "2t ms", "4t ms", "2t speedup",
                        "4t speedup", "4t efficiency"});

    struct Sweep
    {
        const char *name;
        double ms[3];
        double eff[3];
    };
    Sweep merkle{"merkle", {}, {}};
    Sweep sumcheck{"sumcheck", {}, {}};
    Sweep encoder{"encoder", {}, {}};

    Digest root_ref{}, root{};
    Fr sc_ref{}, sc{};
    Fr enc_ref{}, enc{};
    for (size_t i = 0; i < 3; ++i) {
        auto mr = runMerkle(merkle_data, sweep[i], i == 0 ? &root_ref
                                                          : &root);
        auto sr = runSumcheck(poly, sweep[i], i == 0 ? &sc_ref : &sc);
        auto er = runEncoder(code, msg, sweep[i],
                             i == 0 ? &enc_ref : &enc);
        merkle.ms[i] = mr.ms;
        merkle.eff[i] = mr.efficiency;
        sumcheck.ms[i] = sr.ms;
        sumcheck.eff[i] = sr.efficiency;
        encoder.ms[i] = er.ms;
        encoder.eff[i] = er.efficiency;
        if (i > 0 && (root != root_ref || sc != sc_ref || enc != enc_ref))
            fatal("bench_host: results diverged at %zu threads",
                  sweep[i]);
    }

    for (const Sweep *s : {&merkle, &sumcheck, &encoder}) {
        double s2 = s->ms[0] / s->ms[1];
        double s4 = s->ms[0] / s->ms[2];
        table.addRow({s->name, fmtMs(s->ms[0]), fmtMs(s->ms[1]),
                      fmtMs(s->ms[2]), fmtSpeedup(s2), fmtSpeedup(s4),
                      formatSig(s->eff[2], 3)});
        json.addRow(s->name, {{"ms_1t", s->ms[0]},
                              {"ms_2t", s->ms[1]},
                              {"ms_4t", s->ms[2]},
                              {"speedup_2t", s2},
                              {"speedup_4t", s4},
                              {"efficiency_4t", s->eff[2]}});
    }

    printTable(
        "Host-parallel module throughput (thread sweep)", table,
        "Real host modules on this machine; speedups depend on core "
        "count (single-core hosts show ~1.0x). Results are verified "
        "bit-identical across the sweep.");
    return 0;
}
