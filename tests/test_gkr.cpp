/**
 * @file
 * Tests for the layered-circuit GKR protocol: circuit evaluation,
 * prove/verify completeness across depths and widths, and rejection of
 * tampered outputs, rounds and claims.
 */

#include <gtest/gtest.h>

#include "ff/Fields.h"
#include "gkr/Gkr.h"
#include "gkr/GpuGkr.h"
#include "gkr/LayeredCircuit.h"
#include "gpusim/Device.h"

namespace bzk {
namespace {

template <typename F>
class GkrT : public ::testing::Test
{
};

using Fields = ::testing::Types<Fr>;
TYPED_TEST_SUITE(GkrT, Fields);

/** ((a+b) * (c+d)) style two-layer circuit on four inputs. */
template <typename F>
LayeredCircuit<F>
tinyCircuit()
{
    LayeredCircuit<F> c(2); // 4 inputs
    c.addLayer({{LayeredGate::Kind::Add, 0, 1},
                {LayeredGate::Kind::Add, 2, 3}});
    c.addLayer({{LayeredGate::Kind::Mul, 0, 1}});
    return c;
}

TYPED_TEST(GkrT, EvaluateLayers)
{
    using F = TypeParam;
    auto c = tinyCircuit<F>();
    std::vector<F> inputs{F::fromUint(1), F::fromUint(2), F::fromUint(3),
                          F::fromUint(4)};
    auto values = c.evaluate(inputs);
    ASSERT_EQ(values.size(), 3u);
    EXPECT_EQ(values[1][0], F::fromUint(3)); // 1+2
    EXPECT_EQ(values[1][1], F::fromUint(7)); // 3+4
    EXPECT_EQ(values[2][0], F::fromUint(21)); // 3*7
}

TYPED_TEST(GkrT, TinyCircuitRoundTrip)
{
    using F = TypeParam;
    auto c = tinyCircuit<F>();
    std::vector<F> inputs{F::fromUint(1), F::fromUint(2), F::fromUint(3),
                          F::fromUint(4)};
    Gkr<F> gkr(c);
    Transcript pt("gkr-test");
    auto proof = gkr.prove(inputs, pt);
    EXPECT_EQ(proof.outputs[0], F::fromUint(21));

    Transcript vt("gkr-test");
    EXPECT_TRUE(gkr.verify(proof, inputs, vt));
}

TYPED_TEST(GkrT, RandomCircuitsAcrossShapes)
{
    using F = TypeParam;
    Rng rng(1);
    struct Shape
    {
        unsigned in_vars;
        size_t depth;
        size_t width;
    };
    for (Shape s : {Shape{3, 2, 8}, Shape{4, 4, 16}, Shape{5, 3, 20},
                    Shape{2, 6, 4}}) {
        auto c = randomLayeredCircuit<F>(s.in_vars, s.depth, s.width,
                                         rng);
        std::vector<F> inputs(size_t{1} << s.in_vars);
        for (auto &x : inputs)
            x = F::random(rng);
        Gkr<F> gkr(c);
        Transcript pt("gkr-test");
        auto proof = gkr.prove(inputs, pt);
        Transcript vt("gkr-test");
        EXPECT_TRUE(gkr.verify(proof, inputs, vt))
            << "shape " << s.in_vars << "/" << s.depth << "/" << s.width;
    }
}

TYPED_TEST(GkrT, ProvedOutputsMatchEvaluation)
{
    using F = TypeParam;
    Rng rng(2);
    auto c = randomLayeredCircuit<F>(4, 3, 12, rng);
    std::vector<F> inputs(16);
    for (auto &x : inputs)
        x = F::random(rng);
    Gkr<F> gkr(c);
    Transcript pt("gkr-test");
    auto proof = gkr.prove(inputs, pt);
    auto values = c.evaluate(inputs);
    EXPECT_EQ(proof.outputs, values.back());
}

TYPED_TEST(GkrT, RejectsForgedOutput)
{
    // The core soundness property: claiming a wrong output fails.
    using F = TypeParam;
    Rng rng(3);
    auto c = randomLayeredCircuit<F>(4, 3, 12, rng);
    std::vector<F> inputs(16);
    for (auto &x : inputs)
        x = F::random(rng);
    Gkr<F> gkr(c);
    Transcript pt("gkr-test");
    auto proof = gkr.prove(inputs, pt);
    proof.outputs[0] += F::one();
    Transcript vt("gkr-test");
    EXPECT_FALSE(gkr.verify(proof, inputs, vt));
}

TYPED_TEST(GkrT, RejectsWrongInputs)
{
    using F = TypeParam;
    Rng rng(4);
    auto c = randomLayeredCircuit<F>(4, 2, 10, rng);
    std::vector<F> inputs(16);
    for (auto &x : inputs)
        x = F::random(rng);
    Gkr<F> gkr(c);
    Transcript pt("gkr-test");
    auto proof = gkr.prove(inputs, pt);
    auto other = inputs;
    other[5] += F::one();
    Transcript vt("gkr-test");
    EXPECT_FALSE(gkr.verify(proof, other, vt));
}

TYPED_TEST(GkrT, RejectsTamperedRound)
{
    using F = TypeParam;
    Rng rng(5);
    auto c = randomLayeredCircuit<F>(3, 3, 8, rng);
    std::vector<F> inputs(8);
    for (auto &x : inputs)
        x = F::random(rng);
    Gkr<F> gkr(c);
    Transcript pt("gkr-test");
    auto proof = gkr.prove(inputs, pt);
    for (size_t layer : {size_t{0}, proof.layers.size() - 1}) {
        auto bad = proof;
        bad.layers[layer].rounds[1][2] += F::one();
        Transcript vt("gkr-test");
        EXPECT_FALSE(gkr.verify(bad, inputs, vt)) << "layer " << layer;
    }
}

TYPED_TEST(GkrT, RejectsTamperedClaims)
{
    using F = TypeParam;
    Rng rng(6);
    auto c = randomLayeredCircuit<F>(3, 2, 8, rng);
    std::vector<F> inputs(8);
    for (auto &x : inputs)
        x = F::random(rng);
    Gkr<F> gkr(c);
    Transcript pt("gkr-test");
    auto proof = gkr.prove(inputs, pt);
    auto bad = proof;
    bad.layers[0].vx += F::one();
    Transcript vt("gkr-test");
    EXPECT_FALSE(gkr.verify(bad, inputs, vt));
    bad = proof;
    bad.layers.back().vy += F::one();
    Transcript vt2("gkr-test");
    EXPECT_FALSE(gkr.verify(bad, inputs, vt2));
}

TYPED_TEST(GkrT, FirstRoundMatchesScalarReference)
{
    // The output layer's first round is g(t) = sum_x V_t(x) * C_t(x) +
    // D_t(x) over the layer below, with the phase-1 tables built from
    // the gate list and every table interpolated as lo + t * (hi - lo),
    // one row at a time.
    using F = TypeParam;
    Rng rng(8);
    auto c = randomLayeredCircuit<F>(5, 2, 24, rng);
    std::vector<F> inputs(32);
    for (auto &x : inputs)
        x = F::random(rng);
    Transcript pt("gkr-test");
    auto proof = Gkr<F>(c).prove(inputs, pt);

    // Replay the transcript up to the output point u.
    Transcript rt("gkr-test");
    for (const F &o : proof.outputs)
        rt.absorbField("gkr.out", o);
    std::vector<F> u(c.layerVars(c.depth()));
    for (auto &x : u)
        x = rt.template challengeField<F>("gkr.g");
    auto eq_u = eqTable(u);

    // C(x) and D(x) of h(x) = V(x) * C(x) + D(x) for the top layer.
    const auto below = c.evaluate(inputs)[c.depth() - 1];
    std::vector<F> cx(below.size(), F::zero());
    std::vector<F> dx(below.size(), F::zero());
    const auto &gates = c.layerGates(c.depth());
    for (size_t g = 0; g < gates.size(); ++g) {
        if (gates[g].kind == LayeredGate::Kind::Mul) {
            cx[gates[g].in0] += eq_u[g] * below[gates[g].in1];
        } else {
            cx[gates[g].in0] += eq_u[g];
            dx[gates[g].in0] += eq_u[g] * below[gates[g].in1];
        }
    }
    size_t half = below.size() / 2;
    const auto &round = proof.layers[0].rounds[0];
    ASSERT_EQ(round.size(), 3u);
    for (size_t t = 0; t < 3; ++t) {
        F t_f = F::fromUint(t);
        auto at = [&](const std::vector<F> &v, size_t x) {
            return v[x] + t_f * (v[x + half] - v[x]);
        };
        F expected = F::zero();
        for (size_t x = 0; x < half; ++x)
            expected += at(below, x) * at(cx, x) + at(dx, x);
        EXPECT_EQ(round[t], expected) << "t=" << t;
    }
}

TYPED_TEST(GkrT, ProofSizeLogarithmicInWidth)
{
    // GKR's selling point: proof size ~ depth * log(width), far below
    // the witness size.
    using F = TypeParam;
    Rng rng(7);
    auto narrow = randomLayeredCircuit<F>(4, 3, 16, rng);
    auto wide = randomLayeredCircuit<F>(8, 3, 256, rng);
    std::vector<F> in_n(16), in_w(256);
    for (auto &x : in_n)
        x = F::random(rng);
    for (auto &x : in_w)
        x = F::random(rng);
    Transcript t1("gkr-test"), t2("gkr-test");
    auto p_n = Gkr<F>(narrow).prove(in_n, t1);
    auto p_w = Gkr<F>(wide).prove(in_w, t2);
    // 16x wider, but the sum-check transcript grows only by the log
    // factor (rounds per layer = 2 * log(width)).
    auto rounds_bytes = [](const GkrProof<F> &p) {
        size_t bytes = 0;
        for (const auto &layer : p.layers)
            for (const auto &g : layer.rounds)
                bytes += g.size() * F::kNumBytes;
        return bytes;
    };
    EXPECT_LT(rounds_bytes(p_w), rounds_bytes(p_n) * 3);
}

class GpuGkrTest : public ::testing::Test
{
  protected:
    gpusim::Device dev_{gpusim::DeviceSpec::gh200()};
    Rng rng_{77};
};

TEST_F(GpuGkrTest, FunctionalProofsVerify)
{
    auto c = randomLayeredCircuit<Fr>(4, 3, 12, rng_);
    GpuGkrOptions opt;
    opt.functional = 2;
    // A deterministic rng lets verification regenerate the same inputs.
    Rng prove_rng(6);
    std::vector<GkrProof<Fr>> out;
    PipelinedGkrGpu(dev_, opt).run(c, 4, prove_rng, &out);
    ASSERT_EQ(out.size(), 2u);
    Gkr<Fr> gkr(c);
    Rng check_rng(6);
    for (const auto &proof : out) {
        std::vector<Fr> inputs(size_t{1} << c.layerVars(0));
        for (auto &x : inputs)
            x = Fr::random(check_rng);
        Transcript vt("batchzk.gkr.batch");
        EXPECT_TRUE(gkr.verify(proof, inputs, vt));
    }
}

TEST_F(GpuGkrTest, PipelinedThroughputWins)
{
    auto c = randomLayeredCircuit<Fr>(10, 8, 1 << 10, rng_);
    GpuGkrOptions opt;
    opt.functional = 0;
    Rng r1(1), r2(1);
    auto pipe = PipelinedGkrGpu(dev_, opt).run(c, 128, r1);
    auto base = IntuitiveGkrGpu(dev_, opt).run(c, 32, r2);
    EXPECT_GT(pipe.throughput_per_ms, base.throughput_per_ms);
}

TEST_F(GpuGkrTest, PipelinedUtilizationHigher)
{
    auto c = randomLayeredCircuit<Fr>(10, 8, 1 << 10, rng_);
    GpuGkrOptions opt;
    opt.functional = 0;
    Rng r1(2), r2(2);
    auto pipe = PipelinedGkrGpu(dev_, opt).run(c, 128, r1);
    auto base = IntuitiveGkrGpu(dev_, opt).run(c, 32, r2);
    EXPECT_GT(pipe.utilization, base.utilization);
}

TEST_F(GpuGkrTest, DeeperCircuitsBenefitMore)
{
    // More layers = more pipeline stages = bigger win.
    GpuGkrOptions opt;
    opt.functional = 0;
    auto speedup = [&](size_t depth) {
        Rng r(3);
        auto c = randomLayeredCircuit<Fr>(9, depth, 1 << 9, r);
        Rng r1(4), r2(4);
        auto pipe = PipelinedGkrGpu(dev_, opt).run(c, 128, r1);
        auto base = IntuitiveGkrGpu(dev_, opt).run(c, 32, r2);
        return pipe.throughput_per_ms / base.throughput_per_ms;
    };
    EXPECT_GT(speedup(16), speedup(2));
}

TEST(LayeredCircuit, RejectsOutOfRangeWire)
{
    LayeredCircuit<Fr> c(2);
    EXPECT_DEATH(
        { c.addLayer({{LayeredGate::Kind::Add, 0, 9}}); },
        "out of range");
}

} // namespace
} // namespace bzk
