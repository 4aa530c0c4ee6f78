#ifndef BZK_CORE_FULLSNARK_H_
#define BZK_CORE_FULLSNARK_H_

/**
 * @file
 * The wiring-sound BatchZK proof system: a Spartan-shaped SNARK over
 * the sparse R1CS of a circuit, with the witness committed through the
 * same tensor-code PCS (encoder + Merkle modules).
 *
 * Protocol (two sum-check phases, as in Spartan/Brakedown):
 *
 *   1. commit the private half of z (the wire values) -> root;
 *   2. tau <- transcript; phase-1 cubic sum-check over rows:
 *        sum_x eq(tau,x) * (Az~(x) Bz~(x) - Cz~(x)) = 0
 *      ending at rx with claims vA, vB, vC — the gate sum-check of the
 *      multiplicative gate (MulGate), under its own round labels;
 *   3. alpha <- transcript; phase-2 quadratic sum-check over columns:
 *        vA + a vB + a^2 vC = sum_y M(y) z~(y),
 *        M(y) = A~(rx,y) + a B~(rx,y) + a^2 C~(rx,y)
 *      ending at ry with claims for M(ry) (the verifier evaluates the
 *      sparse matrix MLEs itself) and z~(ry) — the shared round loop
 *      with a dot-product combine step, exactly 3 values per round;
 *   4. z~(ry) splits into the public half (verifier-computed from the
 *      claimed inputs) and the committed private half, opened via the
 *      PCS at ry's tail.
 *
 * Unlike the table-commitment Snark, tampering with *any* wiring
 * relation — including the values of public inputs and constants —
 * breaks one of the two sum-checks or the opening.
 */

#include <array>
#include <span>
#include <vector>

#include "circuit/Circuit.h"
#include "circuit/R1cs.h"
#include "core/Snark.h"
#include "core/TensorPcs.h"
#include "hash/Transcript.h"
#include "sumcheck/Sumcheck.h"

namespace bzk {

/** A complete wiring-sound proof. */
template <typename F>
struct FullSnarkProof
{
    PcsCommitment commit_w;
    /** Phase 1 (rows), cubic: 4 evaluations per round. */
    RoundsProof<F> phase1;
    F va{};
    F vb{};
    F vc{};
    /** Phase 2 (columns), quadratic: 3 evaluations per round. */
    RoundsProof<F> phase2;
    /** Claimed private-half evaluation w~(ry tail). */
    F vw{};
    PcsEvalProof<F> open_w;

    /** Rough wire size in bytes. */
    size_t
    sizeBytes() const
    {
        size_t bytes = 32 + 4 * F::kNumBytes;
        for (const auto &g : phase1.rounds)
            bytes += g.size() * F::kNumBytes;
        for (const auto &g : phase2.rounds)
            bytes += g.size() * F::kNumBytes;
        bytes += (open_w.eval_row.size() + open_w.proximity_row.size()) *
                 F::kNumBytes;
        for (const auto &column : open_w.columns)
            bytes += column.size() * F::kNumBytes;
        for (const auto &path : open_w.paths)
            bytes += path.siblings.size() * 32 + 8;
        return bytes;
    }
};

/** Prover + verifier for one circuit's R1CS. */
template <typename F>
class FullSnark
{
  public:
    /**
     * @param r1cs the circuit's constraint system (public parameters).
     * @param seed shared encoder seed.
     * @param column_openings PCS spot-check count.
     */
    FullSnark(R1cs<F> r1cs, uint64_t seed, size_t column_openings = 8)
        : r1cs_(std::move(r1cs)),
          pcs_(r1cs_.col_vars - 1, seed, column_openings)
    {
    }

    const R1cs<F> &r1cs() const { return r1cs_; }

    /** Prove the circuit is satisfied by @p assignment on @p inputs. */
    FullSnarkProof<F>
    prove(std::span<const F> inputs,
          const Assignment<F> &assignment) const
    {
        Transcript transcript("batchzk.fullsnark.v1");
        absorbStatement(transcript, inputs);

        std::vector<F> z = r1cs_.extendWitness(inputs, assignment);

        FullSnarkProof<F> proof;
        // st_w borrows w until the opening below.
        std::vector<F> w = r1cs_.privateHalf(assignment);
        PcsProverState<F> st_w;
        pcs_.commit(w, st_w);
        proof.commit_w = st_w.commitment;
        transcript.absorbDigest("com.w", proof.commit_w.root);

        std::vector<F> tau(r1cs_.row_vars);
        for (auto &t : tau)
            t = transcript.template challengeField<F>("tau");

        // Phase 1 over the rows: the folded tables end up as the claims
        // at rx.
        std::vector<F> az = r1cs_.apply(r1cs_.a, z);
        std::vector<F> bz = r1cs_.apply(r1cs_.b, z);
        std::vector<F> cz = r1cs_.apply(r1cs_.c, z);
        std::vector<F> rx, weights;
        proof.phase1 = proveGateSumcheck<MulGate>(
            tau, {az, bz, cz}, {&az, &bz, &cz}, weights, kPhase1Labels,
            transcript, &rx);
        proof.va = az[0];
        proof.vb = bz[0];
        proof.vc = cz[0];
        transcript.absorbField("p1.va", proof.va);
        transcript.absorbField("p1.vb", proof.vb);
        transcript.absorbField("p1.vc", proof.vc);

        // Phase 2 over the columns.
        F alpha = transcript.template challengeField<F>("alpha");
        std::vector<F> m(r1cs_.numCols(), F::zero());
        auto eq_rx = eqTable(rx);
        F a2 = alpha * alpha;
        for (const auto &e : r1cs_.a)
            m[e.col] += e.coeff * eq_rx[e.row];
        for (const auto &e : r1cs_.b)
            m[e.col] += alpha * e.coeff * eq_rx[e.row];
        for (const auto &e : r1cs_.c)
            m[e.col] += a2 * e.coeff * eq_rx[e.row];

        std::vector<F> ry = proveRounds(
            {m, z}, std::array{&m, &z},
            steppedSums<3>([](const std::array<const F *, 2> &at, const F *,
                              F *, size_t n) {
                return ff::dotLanes(at[0], at[1], n);
            }),
            kPhase2Labels.absorber<F>(transcript), proof.phase2.rounds);

        // Open the private half at ry's tail. Its value is
        // <eval_row, eq(r_col)>, the identity TensorPcs::verify checks.
        std::vector<F> ry_tail(ry.begin() + 1, ry.end());
        std::vector<F> eval_row = pcs_.evalRow(st_w, ry_tail);
        std::vector<F> r_col(ry_tail.begin() + pcs_.rowVars(), ry_tail.end());
        proof.vw = ff::dotLanes(eval_row.data(), eqTable(r_col).data(),
                                eval_row.size());
        transcript.absorbField("p2.vw", proof.vw);
        proof.open_w = pcs_.open(st_w, eval_row, transcript);
        return proof;
    }

    /** Verify a proof against claimed public inputs. */
    bool
    verify(const FullSnarkProof<F> &proof,
           std::span<const F> inputs) const
    {
        if (inputs.size() != r1cs_.num_inputs)
            return false;
        Transcript transcript("batchzk.fullsnark.v1");
        absorbStatement(transcript, inputs);
        transcript.absorbDigest("com.w", proof.commit_w.root);

        std::vector<F> tau(r1cs_.row_vars);
        for (auto &t : tau)
            t = transcript.template challengeField<F>("tau");

        // Phase 1 checks.
        if (proof.phase1.rounds.size() != r1cs_.row_vars)
            return false;
        auto p1 = verifyGateSumcheck<MulGate>(F::zero(), proof.phase1,
                                              kPhase1Labels, transcript);
        if (!p1.ok)
            return false;
        const std::vector<F> &rx = p1.point;
        if (eqEval(tau, rx) * ff::gateValue<MulGate::kPower>(
                                  proof.va, proof.vb, proof.vc) !=
            p1.final_claim)
            return false;
        transcript.absorbField("p1.va", proof.va);
        transcript.absorbField("p1.vb", proof.vb);
        transcript.absorbField("p1.vc", proof.vc);

        // Phase 2 checks.
        F alpha = transcript.template challengeField<F>("alpha");
        F target = proof.va + alpha * proof.vb +
                   alpha * alpha * proof.vc;
        auto verdict = verifyRounds<3>(target, proof.phase2.rounds,
                                       kPhase2Labels.absorber<F>(transcript));
        if (!verdict.ok || verdict.point.size() != r1cs_.col_vars)
            return false;
        const std::vector<F> &ry = verdict.point;

        // The verifier evaluates the sparse matrix MLEs itself.
        F vm = r1cs_.evalMatrixMle(r1cs_.a, rx, ry) +
               alpha * r1cs_.evalMatrixMle(r1cs_.b, rx, ry) +
               alpha * alpha * r1cs_.evalMatrixMle(r1cs_.c, rx, ry);
        std::vector<F> ry_tail(ry.begin() + 1, ry.end());
        F vz = (F::one() - ry[0]) *
                   r1cs_.evalPublicMle(inputs, ry_tail) +
               ry[0] * proof.vw;
        if (vm * vz != verdict.final_claim)
            return false;

        transcript.absorbField("p2.vw", proof.vw);
        return pcs_.verify(proof.commit_w, ry_tail, proof.vw,
                           proof.open_w, transcript);
    }

  private:
    /** Phase 1 is the multiplicative gate's sum-check, own labels. */
    static constexpr RoundLabels kPhase1Labels{"p1.g", "p1.r"};
    /** Phase 2 is the sum of M times z. */
    static constexpr RoundLabels kPhase2Labels{"psc.g", "psc.r"};

    void
    absorbStatement(Transcript &transcript,
                    std::span<const F> inputs) const
    {
        uint8_t dims[2] = {static_cast<uint8_t>(r1cs_.row_vars),
                           static_cast<uint8_t>(r1cs_.col_vars)};
        transcript.absorb("r1cs.dims", dims);
        for (const F &x : inputs)
            transcript.absorbField("public", x);
    }

    R1cs<F> r1cs_;
    TensorPcs<F> pcs_;
};

} // namespace bzk

#endif // BZK_CORE_FULLSNARK_H_
