#ifndef BZK_GKR_GKR_H_
#define BZK_GKR_GKR_H_

/**
 * @file
 * The GKR interactive proof for layered circuits, made non-interactive
 * with the Fiat-Shamir transcript — the protocol family (Libra, Virgo,
 * Virgo++, zkCNN, Orion) whose inner loop is exactly the sum-check
 * module this library accelerates.
 *
 * For each layer l (output down to inputs) the prover runs a
 * 2*k-round sum-check of
 *
 *   V_l(g) = sum_{x,y} [ add~_l(g,x,y) (V_{l-1}(x) + V_{l-1}(y))
 *                      + mul~_l(g,x,y)  V_{l-1}(x) * V_{l-1}(y) ],
 *
 * using the Libra-style linear-time prover: phase one sums over x with
 * scatter-built bookkeeping tables A1/A2/A3, phase two over y with
 * B1/B2, each O(gates + layer width) per layer. Both phases sum
 * h(b) = V(b) * C(b) + D(b) on the shared sum-check round loop
 * (sumcheck/Sumcheck.h), on the lane kernels. The two resulting
 * claims V_{l-1}(rx), V_{l-1}(ry) are merged with random alpha, beta
 * into the next layer's combined claim. The verifier evaluates the
 * wiring predicates add~/mul~ itself from the gate list (O(gates))
 * and, at the bottom, the input layer's multilinear extension directly
 * from the public inputs.
 *
 * Inputs and outputs are public here (verifiable outsourcing, the
 * zkCNN setting); a zero-knowledge variant would commit V_0 with the
 * tensor PCS instead of evaluating it in the clear.
 */

#include <array>
#include <vector>

#include "ff/FieldBackend.h"
#include "gkr/LayeredCircuit.h"
#include "hash/Transcript.h"
#include "poly/Multilinear.h"
#include "sumcheck/Sumcheck.h"
#include "util/Log.h"

namespace bzk {

/** Per-layer piece of a GKR proof. */
template <typename F>
struct GkrLayerProof
{
    /** 2*k_{l-1} sum-check rounds, 3 evaluations (degree 2) each. */
    std::vector<std::vector<F>> rounds;
    /** Claimed V_{l-1}(rx). */
    F vx{};
    /** Claimed V_{l-1}(ry). */
    F vy{};
};

/** A complete GKR proof. */
template <typename F>
struct GkrProof
{
    /** Claimed (padded) output-layer values. */
    std::vector<F> outputs;
    /** Layer proofs, output layer first. */
    std::vector<GkrLayerProof<F>> layers;

    /** Rough wire size in bytes. */
    size_t
    sizeBytes() const
    {
        size_t bytes = outputs.size() * F::kNumBytes;
        for (const auto &layer : layers) {
            bytes += 2 * F::kNumBytes;
            for (const auto &g : layer.rounds)
                bytes += g.size() * F::kNumBytes;
        }
        return bytes;
    }
};

/** Prover/verifier pair for one layered circuit. */
template <typename F>
class Gkr
{
  public:
    explicit Gkr(const LayeredCircuit<F> &circuit) : circuit_(circuit) {}

    /** Prove the circuit's outputs on @p inputs. */
    GkrProof<F>
    prove(const std::vector<F> &inputs, Transcript &transcript) const
    {
        auto values = circuit_.evaluate(inputs);
        size_t depth = circuit_.depth();

        GkrProof<F> proof;
        proof.outputs = values[depth];
        for (const F &o : proof.outputs)
            transcript.absorbField("gkr.out", o);

        // Initial claim: V_L~(g) for transcript-drawn g.
        std::vector<F> u = drawPoint(transcript, circuit_.layerVars(depth));
        std::vector<F> v = u;
        F alpha = F::one();
        F beta = F::zero();

        for (size_t l = depth; l >= 1; --l) {
            GkrLayerProof<F> layer;
            const auto &gates = circuit_.layerGates(l);
            const auto &below = values[l - 1];
            unsigned k = circuit_.layerVars(l - 1);
            size_t width = size_t{1} << k;

            // Combined eq over the layer's own index space.
            auto eq_u = eqTable(u);
            auto eq_v = eqTable(v);
            std::vector<F> eqz(eq_u.size());
            for (size_t z = 0; z < eqz.size(); ++z)
                eqz[z] = alpha * eq_u[z] + beta * eq_v[z];

            // Phase 1 bookkeeping (scatter over gates by in0):
            //   h1(x) = V(x) * (A1 + A2)(x) + A3(x)
            std::vector<F> a12(width, F::zero());
            std::vector<F> a3(width, F::zero());
            for (size_t g = 0; g < gates.size(); ++g) {
                const LayeredGate &gate = gates[g];
                if (gate.kind == LayeredGate::Kind::Mul) {
                    a12[gate.in0] += eqz[g] * below[gate.in1];
                } else {
                    a12[gate.in0] += eqz[g];
                    a3[gate.in0] += eqz[g] * below[gate.in1];
                }
            }
            std::vector<F> vx_table;
            std::vector<F> rx = proveRounds(
                {below, a12, a3}, std::array{&vx_table, &a12, &a3},
                steppedSums<3>(vcd), kLabels.absorber<F>(transcript),
                layer.rounds);
            layer.vx = vx_table[0];

            // Phase 2 bookkeeping (scatter by in1, rx fixed):
            //   h2(y) = V(y) * (B1*vx + B2)(y) + (B2*vx)(y)
            auto eq_rx = eqTable(rx);
            std::vector<F> c(width, F::zero());
            std::vector<F> d(width, F::zero());
            for (size_t g = 0; g < gates.size(); ++g) {
                const LayeredGate &gate = gates[g];
                F coeff = eqz[g] * eq_rx[gate.in0];
                if (gate.kind == LayeredGate::Kind::Mul) {
                    c[gate.in1] += coeff * layer.vx;
                } else {
                    c[gate.in1] += coeff;
                    d[gate.in1] += coeff * layer.vx;
                }
            }
            std::vector<F> vy_table;
            std::vector<F> ry = proveRounds(
                {below, c, d}, std::array{&vy_table, &c, &d},
                steppedSums<3>(vcd), kLabels.absorber<F>(transcript),
                layer.rounds);
            layer.vy = vy_table[0];

            transcript.absorbField("gkr.vx", layer.vx);
            transcript.absorbField("gkr.vy", layer.vy);
            proof.layers.push_back(std::move(layer));

            if (l > 1) {
                alpha = transcript.template challengeField<F>("gkr.alpha");
                beta = transcript.template challengeField<F>("gkr.beta");
                u = std::move(rx);
                v = std::move(ry);
            }
        }
        return proof;
    }

    /**
     * Verify that @p proof.outputs are the circuit's outputs on
     * @p inputs.
     */
    bool
    verify(const GkrProof<F> &proof, const std::vector<F> &inputs,
           Transcript &transcript) const
    {
        size_t depth = circuit_.depth();
        if (proof.layers.size() != depth)
            return false;
        size_t out_width = size_t{1} << circuit_.layerVars(depth);
        if (proof.outputs.size() != out_width)
            return false;
        for (const F &o : proof.outputs)
            transcript.absorbField("gkr.out", o);

        std::vector<F> u =
            drawPoint(transcript, circuit_.layerVars(depth));
        std::vector<F> v = u;
        F alpha = F::one();
        F beta = F::zero();
        F claim = Multilinear<F>(proof.outputs).evaluate(u);

        std::vector<F> last_rx, last_ry;
        F claim_x = F::zero();
        F claim_y = F::zero();
        for (size_t l = depth; l >= 1; --l) {
            const GkrLayerProof<F> &layer = proof.layers[depth - l];
            unsigned k = circuit_.layerVars(l - 1);
            if (layer.rounds.size() != 2 * static_cast<size_t>(k))
                return false;

            // Walk the 2k rounds, starting from the combined claim.
            F cur = (l == depth) ? claim
                                 : alpha * claim_x + beta * claim_y;
            auto verdict = verifyRounds<3>(cur, layer.rounds,
                                           kLabels.absorber<F>(transcript));
            if (!verdict.ok)
                return false;
            std::vector<F> rx(verdict.point.begin(),
                              verdict.point.begin() + k);
            std::vector<F> ry(verdict.point.begin() + k,
                              verdict.point.end());

            // Final wiring check: verifier evaluates the predicates.
            const auto &gates = circuit_.layerGates(l);
            auto eq_u = eqTable(u);
            auto eq_v = eqTable(v);
            auto eq_rx = eqTable(rx);
            auto eq_ry = eqTable(ry);
            F add_c = F::zero();
            F mul_c = F::zero();
            for (size_t g = 0; g < gates.size(); ++g) {
                const LayeredGate &gate = gates[g];
                F zc = alpha * eq_u[g] + beta * eq_v[g];
                F coeff = zc * eq_rx[gate.in0] * eq_ry[gate.in1];
                if (gate.kind == LayeredGate::Kind::Mul)
                    mul_c += coeff;
                else
                    add_c += coeff;
            }
            F expect = add_c * (layer.vx + layer.vy) +
                       mul_c * layer.vx * layer.vy;
            if (expect != verdict.final_claim)
                return false;

            transcript.absorbField("gkr.vx", layer.vx);
            transcript.absorbField("gkr.vy", layer.vy);
            claim_x = layer.vx;
            claim_y = layer.vy;
            last_rx = rx;
            last_ry = ry;

            if (l > 1) {
                alpha = transcript.template challengeField<F>("gkr.alpha");
                beta = transcript.template challengeField<F>("gkr.beta");
                u = std::move(rx);
                v = std::move(ry);
            }
        }

        // Bottom: check the claims against the public input layer.
        std::vector<F> padded = inputs;
        padded.resize(size_t{1} << circuit_.layerVars(0), F::zero());
        Multilinear<F> v0(padded);
        return v0.evaluate(last_rx) == claim_x &&
               v0.evaluate(last_ry) == claim_y;
    }

  private:
    /** Draw @p k point coordinates from the transcript. */
    static std::vector<F>
    drawPoint(Transcript &transcript, unsigned k)
    {
        std::vector<F> point(k);
        for (auto &p : point)
            p = transcript.template challengeField<F>("gkr.g");
        return point;
    }

    /** Labels of each layer's 2k round messages and challenges. */
    static constexpr RoundLabels kLabels{"gkr.h", "gkr.r"};

    /** Combine step of h(b) = V(b) * C(b) + D(b) over a chunk. */
    static F
    vcd(const std::array<const F *, 3> &at, const F *, F *, size_t m)
    {
        return ff::dotLanes(at[0], at[1], m) + ff::sumLanes(at[2], m);
    }

    const LayeredCircuit<F> &circuit_;
};

} // namespace bzk

#endif // BZK_GKR_GKR_H_
