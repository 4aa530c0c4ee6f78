/**
 * @file
 * Google-benchmark microbenchmarks of the cryptographic primitives the
 * modules are built from. These are the real host-side costs behind the
 * measured CPU baseline columns in Tables 3-5 and 7.
 *
 * Before the google-benchmark suite runs, a scalar-vs-SIMD sweep of
 * the wide BN254 Fr kernels (plus the 2^14-point MSM acceptance
 * sweep), the portable-vs-dispatched SHA-256 block kernels, the
 * scalar-path rows (eqTable and the column-leaf function against their
 * reference loops) and the gate sum-check's fused chunk step against
 * the stepped one are measured and printed; with `--json <path>` they
 * are dumped in the JsonBench schema that tools/check_bench.py gates in
 * the perf-smoke CI job (the checked-in baseline pins the
 * packed-vs-scalar Fr mul speedup and the vectorized MSM speedup; the
 * SHA-256, scalar-path and gate_sums rows are reported, not pinned).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/BenchUtil.h"
#include "core/TensorPcs.h"
#include "curve/Msm.h"
#include "exec/ExecContext.h"
#include "encoder/SpielmanCode.h"
#include "ff/FieldBackend.h"
#include "ff/Fields.h"
#include "ff/Ntt.h"
#include "gkr/Gkr.h"
#include "hash/Sha256.h"
#include "hash/Sha256Kernels.h"
#include "merkle/MerkleTree.h"
#include "poly/Multilinear.h"
#include "sumcheck/Sumcheck.h"
#include "util/Timer.h"

namespace bzk {
namespace {

void
BM_Sha256Compress(benchmark::State &state)
{
    uint8_t block[64] = {1, 2, 3};
    for (auto _ : state) {
        auto d = Sha256::compressBlock(std::span<const uint8_t, 64>(block));
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_Sha256Compress);

void
BM_Sha256CompressPortable(benchmark::State &state)
{
    // The portable kernel regardless of host (BM_Sha256Compress runs
    // whichever kernel the dispatcher picked).
    uint8_t block[64] = {1, 2, 3};
    uint32_t words[8] = {};
    for (auto _ : state) {
        hash::detail::compressPortable(words, block, 1);
        benchmark::DoNotOptimize(words);
    }
}
BENCHMARK(BM_Sha256CompressPortable);

void
BM_Sha256Compress16(benchmark::State &state)
{
    // Sixteen independent blocks: one 16-lane AVX-512 compression where
    // the CPU has it, else 16 dispatched single-block compressions.
    uint8_t blocks[16 * 64] = {1, 2, 3};
    Digest out[16];
    for (auto _ : state) {
        Sha256::compressBlocks(blocks, 16, out);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_Sha256Compress16);

/**
 * One Merkle layer via hashPair (per-node schedule setup + digest
 * staging copies) vs. hashPairs (in-place, 16 pairs per AVX-512
 * compression where the CPU has it) — the layer build path.
 */
void
BM_MerkleLayerHashPair(benchmark::State &state)
{
    size_t pairs = static_cast<size_t>(state.range(0));
    std::vector<Digest> below(2 * pairs);
    std::vector<Digest> above(pairs);
    for (size_t i = 0; i < below.size(); ++i)
        below[i].bytes[0] = static_cast<uint8_t>(i);
    for (auto _ : state) {
        for (size_t i = 0; i < pairs; ++i)
            above[i] = Sha256::hashPair(below[2 * i], below[2 * i + 1]);
        benchmark::DoNotOptimize(above.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(pairs));
}
BENCHMARK(BM_MerkleLayerHashPair)->Range(1 << 8, 1 << 12);

void
BM_MerkleLayerHashPairs(benchmark::State &state)
{
    size_t pairs = static_cast<size_t>(state.range(0));
    std::vector<Digest> below(2 * pairs);
    std::vector<Digest> above(pairs);
    for (size_t i = 0; i < below.size(); ++i)
        below[i].bytes[0] = static_cast<uint8_t>(i);
    for (auto _ : state) {
        Sha256::hashPairs(below.data(), pairs, above.data());
        benchmark::DoNotOptimize(above.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(pairs));
}
BENCHMARK(BM_MerkleLayerHashPairs)->Range(1 << 8, 1 << 12);

void
BM_Sha256Digest1K(benchmark::State &state)
{
    std::vector<uint8_t> data(1024, 0xab);
    for (auto _ : state) {
        auto d = Sha256::digest(data);
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_Sha256Digest1K);

void
BM_FrMul(benchmark::State &state)
{
    Rng rng(1);
    Fr a = Fr::random(rng);
    Fr b = Fr::random(rng);
    for (auto _ : state) {
        a = a * b;
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FrMul);

void
BM_FrAdd(benchmark::State &state)
{
    Rng rng(2);
    Fr a = Fr::random(rng);
    Fr b = Fr::random(rng);
    for (auto _ : state) {
        a = a + b;
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FrAdd);

void
BM_FrInverse(benchmark::State &state)
{
    Rng rng(3);
    Fr a = Fr::random(rng);
    for (auto _ : state) {
        a = a.inverse() + Fr::one();
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FrInverse);

void
BM_FrMulLanes(benchmark::State &state)
{
    Rng rng(15);
    size_t n = static_cast<size_t>(state.range(0));
    std::vector<Fr> a(n), b(n), out(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = Fr::random(rng);
        b[i] = Fr::random(rng);
    }
    for (auto _ : state) {
        ff::mulLanes(a.data(), b.data(), out.data(), n);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(n));
    state.SetLabel(ff::backendName(ff::activeBackend()));
}
BENCHMARK(BM_FrMulLanes)->Range(1 << 10, 1 << 14);

void
BM_FrBatchInverse(benchmark::State &state)
{
    Rng rng(16);
    size_t n = static_cast<size_t>(state.range(0));
    std::vector<Fr> x(n);
    for (auto &v : x)
        v = Fr::random(rng);
    std::vector<Fr> scratch(n);
    for (auto _ : state) {
        std::copy(x.begin(), x.end(), scratch.begin());
        ff::batchInverse(scratch.data(), n);
        benchmark::DoNotOptimize(scratch.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(n));
    state.SetLabel(ff::backendName(ff::activeBackend()));
}
BENCHMARK(BM_FrBatchInverse)->Range(1 << 10, 1 << 12);

void
BM_Ntt(benchmark::State &state)
{
    Rng rng(5);
    size_t n = static_cast<size_t>(state.range(0));
    std::vector<Fr> data(n);
    for (auto &x : data)
        x = Fr::random(rng);
    for (auto _ : state) {
        ntt(data);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Ntt)->Range(1 << 8, 1 << 12)->Complexity();

void
BM_MsmPippenger(benchmark::State &state)
{
    Rng rng(6);
    size_t n = static_cast<size_t>(state.range(0));
    auto points = randomPoints(n, rng);
    std::vector<Fr> scalars(n);
    for (auto &s : scalars)
        s = Fr::random(rng);
    for (auto _ : state) {
        auto r = msmPippenger(points, scalars);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_MsmPippenger)->Range(1 << 6, 1 << 10);

void
BM_MerkleBuild(benchmark::State &state)
{
    size_t blocks = static_cast<size_t>(state.range(0));
    std::vector<uint8_t> data(blocks * 64, 0x5a);
    for (auto _ : state) {
        auto t = MerkleTree::build(data);
        benchmark::DoNotOptimize(t.root());
    }
}
BENCHMARK(BM_MerkleBuild)->Range(1 << 8, 1 << 12);

void
BM_SumcheckProve(benchmark::State &state)
{
    Rng rng(7);
    unsigned n = static_cast<unsigned>(state.range(0));
    auto poly = Multilinear<Fr>::random(n, rng);
    std::vector<Fr> challenges(n);
    for (auto &c : challenges)
        c = Fr::random(rng);
    for (auto _ : state) {
        auto proof = proveSumcheck(poly, challenges);
        benchmark::DoNotOptimize(proof.rounds.data());
    }
}
BENCHMARK(BM_SumcheckProve)->DenseRange(8, 14, 3);

void
BM_SpielmanEncode(benchmark::State &state)
{
    Rng rng(8);
    size_t k = static_cast<size_t>(state.range(0));
    SpielmanCode<Fr> code(k, 99);
    std::vector<Fr> msg(k);
    for (auto &m : msg)
        m = Fr::random(rng);
    for (auto _ : state) {
        auto cw = code.encode(msg);
        benchmark::DoNotOptimize(cw.data());
    }
}
BENCHMARK(BM_SpielmanEncode)->Range(1 << 8, 1 << 12);

void
BM_PcsCommit(benchmark::State &state)
{
    Rng rng(9);
    unsigned n = static_cast<unsigned>(state.range(0));
    TensorPcs<Fr> pcs(n, 42);
    std::vector<Fr> poly(size_t{1} << n);
    for (auto &p : poly)
        p = Fr::random(rng);
    // One state across iterations, as a prover keeps it across proofs.
    PcsProverState<Fr> st;
    for (auto _ : state) {
        pcs.commit(poly, st);
        benchmark::DoNotOptimize(st.commitment.root);
    }
}
BENCHMARK(BM_PcsCommit)->DenseRange(10, 14, 2);

void
BM_GkrProveLayer(benchmark::State &state)
{
    Rng rng(10);
    unsigned width_vars = static_cast<unsigned>(state.range(0));
    auto c = randomLayeredCircuit<Fr>(width_vars, 2,
                                      size_t{1} << width_vars, rng);
    std::vector<Fr> inputs(size_t{1} << width_vars);
    for (auto &x : inputs)
        x = Fr::random(rng);
    Gkr<Fr> gkr(c);
    for (auto _ : state) {
        Transcript t("bench");
        auto proof = gkr.prove(inputs, t);
        benchmark::DoNotOptimize(proof.layers.data());
    }
}
BENCHMARK(BM_GkrProveLayer)->DenseRange(6, 10, 2);

/**
 * Median wall ms of @p fn over five runs (first run doubles as
 * warmup and is measured like the rest; the median is robust to it).
 */
template <typename Fn>
double
medianMs(Fn &&fn)
{
    double t[5];
    for (double &ms : t) {
        Timer timer;
        fn();
        ms = timer.milliseconds();
    }
    std::sort(t, t + 5);
    return t[2];
}

/**
 * Scalar-vs-packed sweep of the wide 4x64-limb Montgomery kernels on
 * BN254 Fr (mul, add, dot, and the prover's fold and axpy: every
 * sum-check round folds, every PCS row combination runs axpys), plus
 * the 2^14-point MSM acceptance sweep: the vectorized
 * batch-affine bucket pass must beat the scalar Jacobian bucket loop
 * and produce a bit-identical point. Outputs under the forced scalar
 * backend (Fp's element loop) and the host's best backend
 * (detectBackend(), whatever BZK_FIELD_BACKEND says) are cross-checked
 * element-by-element before any throughput is reported; the column
 * heading and the meta name the backend the sweep forces. The speedup
 * is IFMA against Fp itself on IFMA hosts; elsewhere the best backend
 * is scalar, so the sweep times Fp against Fp (about 1x).
 */
void
runWideFieldSweep(bench::JsonBench &json)
{
    using bzk::ff::Backend;
    constexpr size_t kN = size_t{1} << 14;
    constexpr size_t kIters = 16;
    constexpr size_t kInvN = size_t{1} << 12;

    Rng rng(0xb254);
    std::vector<Fr> a(kN), b(kN), out(kN), scratch(kN);
    for (size_t i = 0; i < kN; ++i) {
        a[i] = Fr::random(rng);
        b[i] = Fr::random(rng);
    }

    Backend best = ff::detectBackend();
    const char *wide_name = ff::backendName(best);
    json.meta("wide_backend", wide_name);
    json.meta("wide_lanes", std::to_string(ff::backendLanes(best)));

    TablePrinter table({"Kernel", "scalar Melem/s",
                        std::string(wide_name) + " Melem/s",
                        "speedup"});
    double total_elems = static_cast<double>(kN) * kIters;

    struct Kernel
    {
        const char *label;
        void (*run)(std::vector<Fr> &, std::vector<Fr> &,
                    std::vector<Fr> &);
    };
    const Kernel kernels[] = {
        {"wide_field_mul",
         [](std::vector<Fr> &x, std::vector<Fr> &y,
            std::vector<Fr> &o) {
             for (size_t it = 0; it < kIters; ++it)
                 ff::mulLanes(x.data(), y.data(), o.data(), x.size());
         }},
        {"wide_field_add",
         [](std::vector<Fr> &x, std::vector<Fr> &y,
            std::vector<Fr> &o) {
             for (size_t it = 0; it < kIters; ++it)
                 ff::addLanes(x.data(), y.data(), o.data(), x.size());
         }},
        {"wide_field_dot",
         [](std::vector<Fr> &x, std::vector<Fr> &y,
            std::vector<Fr> &o) {
             for (size_t it = 0; it < kIters; ++it)
                 o[0] = ff::dotLanes(x.data(), y.data(), x.size());
         }},
        // fold and axpy update o in place, so each run starts it over.
        {"wide_field_fold",
         [](std::vector<Fr> &x, std::vector<Fr> &y,
            std::vector<Fr> &o) {
             o = x;
             for (size_t it = 0; it < kIters; ++it)
                 ff::foldLanes(o.data(), y.data(), x[0], o.size());
         }},
        {"wide_field_axpy",
         [](std::vector<Fr> &x, std::vector<Fr> &y,
            std::vector<Fr> &o) {
             o = y;
             for (size_t it = 0; it < kIters; ++it)
                 ff::axpyLanes(o.data(), x.data(), y[0], o.size());
         }},
    };
    for (const Kernel &k : kernels) {
        ff::forceBackend(Backend::kScalar);
        double scalar_ms = medianMs([&] { k.run(a, b, out); });
        std::vector<Fr> scalar_out = out;
        ff::forceBackend(best);
        double wide_ms = medianMs([&] { k.run(a, b, out); });
        if (out != scalar_out)
            fatal("bench_micro: %s diverged between wide backends",
                  k.label);
        double scalar_tp = total_elems / scalar_ms / 1e3;
        double wide_tp = total_elems / wide_ms / 1e3;
        double speedup = scalar_ms / wide_ms;
        table.addRow({k.label, formatSig(scalar_tp, 4),
                      formatSig(wide_tp, 4),
                      bench::fmtSpeedup(speedup)});
        json.addRow(k.label,
                    {{"scalar_elems_per_ms", scalar_tp * 1e3},
                     {"wide_elems_per_ms", wide_tp * 1e3},
                     {"wide_simd_speedup", speedup}});
    }
    ff::clearForcedBackend();

    // Batch inversion: one Fermat inversion plus 3n packed muls vs.
    // n independent Fermat inversions. This is the same shared
    // denominator the MSM batch-affine pass amortizes.
    std::vector<Fr> inv_in(a.begin(), a.begin() + kInvN);
    double fermat_ms = medianMs([&] {
        std::copy(inv_in.begin(), inv_in.end(), scratch.begin());
        for (size_t i = 0; i < kInvN; ++i)
            scratch[i] = scratch[i].inverse();
    });
    std::vector<Fr> fermat_out(scratch.begin(),
                               scratch.begin() + kInvN);
    double batch_ms = medianMs([&] {
        std::copy(inv_in.begin(), inv_in.end(), scratch.begin());
        ff::batchInverse(scratch.data(), kInvN);
    });
    if (!std::equal(fermat_out.begin(), fermat_out.end(),
                    scratch.begin()))
        fatal("bench_micro: Fr batchInverse diverged from Fermat");
    table.addRow({"fr_batch_inverse",
                  formatSig(kInvN / fermat_ms / 1e3, 4),
                  formatSig(kInvN / batch_ms / 1e3, 4),
                  bench::fmtSpeedup(fermat_ms / batch_ms)});
    json.addRow("fr_batch_inverse",
                {{"elems_per_ms", kInvN / batch_ms},
                 {"speedup_vs_fermat", fermat_ms / batch_ms}});

    // MSM acceptance sweep: 2^14 points, scalar Jacobian bucket loop
    // vs. vectorized batch-affine accumulation, bit-identical affine
    // serialization required.
    constexpr size_t kMsmN = size_t{1} << 14;
    auto points = randomPoints(kMsmN, rng);
    std::vector<Fr> scalars(kMsmN);
    for (auto &s : scalars)
        s = Fr::random(rng);
    G1Point jac_result, vec_result;
    double jac_ms =
        medianMs([&] { jac_result = msmPippengerJacobian(points, scalars); });
    double vec_ms =
        medianMs([&] { vec_result = msmPippenger(points, scalars); });
    G1Affine jac_aff = jac_result.toAffine();
    G1Affine vec_aff = vec_result.toAffine();
    if (jac_aff.infinity != vec_aff.infinity ||
        (!jac_aff.infinity &&
         (jac_aff.x.toHexString() != vec_aff.x.toHexString() ||
          jac_aff.y.toHexString() != vec_aff.y.toHexString())))
        fatal("bench_micro: vectorized MSM diverged from Jacobian");
    table.addRow({"msm_pippenger_2e14",
                  formatSig(kMsmN / jac_ms / 1e3, 4),
                  formatSig(kMsmN / vec_ms / 1e3, 4),
                  bench::fmtSpeedup(jac_ms / vec_ms)});
    json.addRow("msm_pippenger_2e14",
                {{"jacobian_ms", jac_ms},
                 {"vector_ms", vec_ms},
                 {"vector_speedup", jac_ms / vec_ms}});

    bench::printTable(
        "Wide BN254 Fr kernels and MSM (scalar vs " +
            std::string(wide_name) + ")",
        table,
        "Single-threaded; outputs verified bit-identical across "
        "backends. fr_batch_inverse compares one shared inversion "
        "against per-element Fermat; msm_pippenger_2e14 compares the "
        "batch-affine bucket pass against the scalar Jacobian loop "
        "(columns are Mpoint/s for that row).");
}

/**
 * SHA-256 block compression: the portable kernel against the kernel
 * every Sha256 entry point dispatches to on this host (SHA-NI when the
 * CPU has it), over one 8 KiB column leaf's worth of blocks. The two
 * chaining states must agree or the run dies; the selected path goes
 * to meta, and so does the multi-message kernel (sha256_lanes: "avx512"
 * or "none"). Reported only: some CI runners lack SHA-NI, so no
 * baseline pins this row.
 */
void
runShaSweep(bench::JsonBench &json)
{
    constexpr size_t kBlocks = 128;
    constexpr size_t kIters = 64;
    Rng rng(0x5a256);
    std::vector<uint8_t> data(64 * kBlocks);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.next());
    const char *path = hash::detail::activeCompressName();
    json.meta("sha256_path", path);
    json.meta("sha256_lanes",
              hash::detail::avx512Supported() ? "avx512" : "none");

    auto sweep = [&](hash::detail::CompressFn kernel,
                     std::array<uint32_t, 8> &words) {
        for (size_t it = 0; it < kIters; ++it)
            kernel(words.data(), data.data(), kBlocks);
    };
    std::array<uint32_t, 8> portable{}, dispatched{};
    double portable_ms = medianMs(
        [&] { sweep(hash::detail::compressPortable, portable); });
    double dispatched_ms = medianMs(
        [&] { sweep(hash::detail::activeCompress(), dispatched); });
    if (portable != dispatched)
        fatal("bench_micro: %s SHA-256 kernel diverged from portable",
              path);
    double blocks = static_cast<double>(kBlocks * kIters);
    double portable_ns = portable_ms * 1e6 / blocks;
    double dispatched_ns = dispatched_ms * 1e6 / blocks;
    TablePrinter table(
        {"Kernel", "portable ns/block", std::string(path) + " ns/block",
         "speedup"});
    table.addRow({"sha256_compress", formatSig(portable_ns, 4),
                  formatSig(dispatched_ns, 4),
                  bench::fmtSpeedup(portable_ns / dispatched_ns)});
    json.addRow("sha256_compress",
                {{"portable_ns_per_block", portable_ns},
                 {"dispatched_ns_per_block", dispatched_ns}});
    bench::printTable(
        "SHA-256 block compression (portable vs " + std::string(path) +
            ")",
        table,
        "Single-threaded, 128 chained blocks per pass; chaining states "
        "verified identical. Not gated: the dispatched path depends on "
        "the CPU.");
}

/**
 * The commit-path rows. eq_table: eqTable at 2^16 (one lane multiply
 * per entry) against the two-multiply loop it replaced. column_leaves:
 * hashColumns over a 256 x 512 canonical codeword matrix
 * (TensorPcs::commit's shape at n_vars = 16), 16 columns per AVX-512
 * compression where the CPU has it, against the per-column path
 * (hashColumnRuns, one running hash per column). encode_rows:
 * SpielmanCode::encodeRows on 256 rows of 256 (8 rows per batch under
 * ifma) against one canonical encodeInto per row, the path that runs
 * under forced scalar. Each pair must agree exactly or the run dies.
 * Reported only, like sha256_compress: no baseline pins these rows.
 */
void
runScalarPathSweep(bench::JsonBench &json)
{
    constexpr unsigned kEqVars = 16;
    Rng rng(0x5ca1a);
    std::vector<Fr> r(kEqVars);
    for (auto &x : r)
        x = Fr::random(rng);
    auto two_multiplies = [&r] {
        std::vector<Fr> table{Fr::one()};
        table.reserve(size_t{1} << r.size());
        for (auto it = r.rbegin(); it != r.rend(); ++it) {
            size_t half = table.size();
            table.resize(half * 2);
            for (size_t b = 0; b < half; ++b) {
                Fr t = table[b];
                table[b] = t * (Fr::one() - *it);
                table[b + half] = t * *it;
            }
        }
        return table;
    };
    std::vector<Fr> want, got;
    double two_mul_ms = medianMs([&] { want = two_multiplies(); });
    double lane_ms = medianMs([&] { got = eqTable(r); });
    if (got != want)
        fatal("bench_micro: eqTable diverged from the two-multiply loop");

    constexpr size_t kRows = 256;
    constexpr size_t kCols = 512;
    std::vector<U256> canonical(kRows * kCols);
    for (auto &x : canonical)
        x = Fr::random(rng).toU256();
    std::vector<Digest> per_column(kCols), lanes(kCols);
    double per_column_ms = medianMs([&] {
        hashColumnRuns(canonical.data(), kRows, kCols, kCols,
                       per_column.data());
    });
    double lanes_ms = medianMs([&] {
        hashColumns(canonical.data(), kRows, kCols, kCols, lanes.data());
    });
    if (lanes != per_column)
        fatal("bench_micro: hashColumns diverged from the per-column "
              "leaf path");

    constexpr size_t kMessage = kCols / 2;
    SpielmanCode<Fr> code(kMessage, 0xe2c0de);
    std::vector<Fr> table(kRows * kMessage);
    for (auto &x : table)
        x = Fr::random(rng);
    std::vector<U256> per_row(kRows * kCols), batched(kRows * kCols);
    double per_row_ms = medianMs([&] {
        for (size_t row = 0; row < kRows; ++row)
            code.encodeInto(
                std::span<const Fr>(table.data() + row * kMessage, kMessage),
                std::span<U256>(per_row.data() + row * kCols, kCols));
    });
    double batched_ms = medianMs([&] { code.encodeRows(table, batched); });
    if (batched != per_row)
        fatal("bench_micro: encodeRows diverged from the per-row encoder");
    json.meta("encode_rows_backend",
              ff::rowBatchActive() ? "ifma" : "scalar");

    TablePrinter out({"Row", "reference ms", "fast ms", "speedup"});
    out.addRow({"eq_table", formatSig(two_mul_ms, 4), formatSig(lane_ms, 4),
                bench::fmtSpeedup(two_mul_ms / lane_ms)});
    json.addRow("eq_table", {{"two_multiply_ms", two_mul_ms},
                             {"lane_ms", lane_ms},
                             {"lane_speedup", two_mul_ms / lane_ms}});
    out.addRow({"column_leaves", formatSig(per_column_ms, 4),
                formatSig(lanes_ms, 4),
                bench::fmtSpeedup(per_column_ms / lanes_ms)});
    json.addRow("column_leaves",
                {{"per_column_ms", per_column_ms},
                 {"lanes_ms", lanes_ms},
                 {"leaf_speedup", per_column_ms / lanes_ms}});
    out.addRow({"encode_rows", formatSig(per_row_ms, 4),
                formatSig(batched_ms, 4),
                bench::fmtSpeedup(per_row_ms / batched_ms)});
    json.addRow("encode_rows", {{"per_row_ms", per_row_ms},
                                {"batched_ms", batched_ms},
                                {"batch_speedup", per_row_ms / batched_ms}});
    bench::printTable(
        "Commit path (reference vs fast)", out,
        std::string("Single-threaded. eq_table: eqTable over 16 variables, "
                    "one lane multiply per entry vs two scalar multiplies. "
                    "column_leaves: SHA-256 leaves of a 256 x 512 "
                    "canonical codeword matrix's columns, hashColumns ") +
            (hash::detail::avx512Supported()
                 ? "(16 columns per AVX-512 compression)"
                 : "(no AVX-512: both sides alike)") +
            " vs one running hash per column. encode_rows: 256 rows of "
            "256 into canonical codewords, " +
            (ff::rowBatchActive() ? "8 rows per IFMA batch"
                                  : "per row (no IFMA: both sides alike)") +
            " vs one row at a time. Outputs verified identical. Not "
            "gated.");
}

/**
 * The gate_sums row: ff::gateSumsLanes<4>, the gate sum-check's chunk
 * step, over one kReduceChunk chunk of 2,048 Pow4Gate pairs, against
 * the chunk step it replaced, steppedSums with a lane-kernel combine
 * (a^4 by two mulLanes, times b, minus c, dotted with the weights).
 * The six sums must agree exactly or the run dies. Reported only; meta
 * gate_sums_backend names the backend both sides dispatched to.
 */
void
runGateSumsSweep(bench::JsonBench &json)
{
    constexpr size_t kPairs = exec::kReduceChunk;
    constexpr size_t kIters = 16;
    Rng rng(0x6a7e);
    std::vector<Fr> a(2 * kPairs), b(2 * kPairs), c(2 * kPairs), w(kPairs);
    for (std::vector<Fr> *v : {&a, &b, &c, &w})
        for (Fr &x : *v)
            x = Fr::random(rng);
    auto stepped = steppedSums<6>([](const std::array<const Fr *, 3> &at,
                                     const Fr *wt, Fr *g, size_t m) {
        ff::mulLanes(at[0], at[0], g, m);
        ff::mulLanes(g, g, g, m);
        ff::mulLanes(g, at[1], g, m);
        ff::subLanes(g, at[2], g, m);
        return ff::dotLanes(wt, g, m);
    });
    const std::array<const Fr *, 3> lo{a.data(), b.data(), c.data()};
    std::array<Fr, 6> want{}, got{};
    double stepped_ms = medianMs([&] {
        for (size_t it = 0; it < kIters; ++it)
            want = stepped(lo, kPairs, w.data(), kPairs);
    });
    double fused_ms = medianMs([&] {
        for (size_t it = 0; it < kIters; ++it)
            got = ff::gateSumsLanes<4>(a.data(), b.data(), c.data(), kPairs,
                                       w.data(), kPairs);
    });
    if (got != want)
        fatal("bench_micro: gateSumsLanes diverged from the stepped sums");
    const char *backend = ff::backendName(ff::activeBackend());
    json.meta("gate_sums_backend", backend);

    TablePrinter out({"Row", "reference ms", "fast ms", "speedup"});
    out.addRow({"gate_sums", formatSig(stepped_ms / kIters, 4),
                formatSig(fused_ms / kIters, 4),
                bench::fmtSpeedup(stepped_ms / fused_ms)});
    json.addRow("gate_sums", {{"stepped_ms", stepped_ms / kIters},
                              {"fused_ms", fused_ms / kIters},
                              {"fused_speedup", stepped_ms / fused_ms}});
    bench::printTable(
        "Sum-check path (reference vs fast)", out,
        std::string("Single-threaded, ") + backend +
            " backend. gate_sums: the six round sums of a^4 * b - c "
            "over 2,048 table pairs, one fused pass vs tables stepped by "
            "addition and five lane kernels per point; ms per chunk. "
            "Sums verified identical. Not gated.");
}

} // namespace
} // namespace bzk

// Custom main: `--json <path>` feeds the JsonBench dump of the sweeps
// (the perf-smoke CI gate), `--threads <n>` installs the
// process-wide host-thread default, and everything else passes through
// to google-benchmark.
int
main(int argc, char **argv)
{
    bzk::bench::JsonBench json("bench_micro", argc, argv);
    bzk::runWideFieldSweep(json);
    bzk::runShaSweep(json);
    bzk::runScalarPathSweep(json);
    bzk::runGateSumsSweep(json);
    json.write();

    std::vector<std::string> opts;
    for (int i = 0; i < argc; ++i) {
        if (std::string(argv[i]) == "--json" && i + 1 < argc) {
            ++i;
            continue;
        }
        if (std::string(argv[i]) == "--threads" && i + 1 < argc) {
            bzk::exec::setDefaultThreads(
                std::strtoull(argv[i + 1], nullptr, 10));
            ++i;
            continue;
        }
        opts.push_back(argv[i]);
    }
    std::vector<char *> cargs;
    for (auto &s : opts)
        cargs.push_back(s.data());
    int cargc = static_cast<int>(cargs.size());
    benchmark::Initialize(&cargc, cargs.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
