#ifndef BZK_CORE_GATESNARK_H_
#define BZK_CORE_GATESNARK_H_

/**
 * @file
 * The BatchZK proof system over one custom gate: an Orion/Brakedown-
 * shaped SNARK for circuit satisfiability, composed exactly from the
 * paper's three modules (Figure 7 data flow):
 *
 *   1. commit the constraint tables a, b, c with the tensor PCS
 *      (linear-time encoder -> column Merkle trees -> roots);
 *   2. derive the gate challenge tau from the roots (Fiat-Shamir);
 *   3. run the gate sum-check  sum_x eq(tau,x) * G(a(x), b(x), c(x)) = 0;
 *   4. open a, b, c at the sum-check's final point through the PCS,
 *      with the evaluation rows the sum-check's folded tables became;
 *   5. the verifier replays the transcript, checks the sum-check,
 *      checks the three openings, and checks
 *      eq(tau,r) * G(va, vb, vc) == final sum-check claim.
 *
 * The gate G = a^K * b - c is a type parameter. A gate definition
 * supplies:
 *
 *   - kPower: K; the prover's chunk step (ff::gateSumsLanes) and the
 *     verifier's final check (ff::gateValue) compute G from it;
 *   - kEvals: evaluations per round polynomial, deg(eq * G) + 1 =
 *     K + 3;
 *   - kDomain and kLabels: its transcript domain and round labels, so
 *     a proof under one gate never replays as another;
 *   - kProofTag: the leading byte of its wire encoding.
 *
 * core/Snark.h defines MulGate (a*b - c, the table-commitment
 * protocol) and core/HighDegreeSnark.h defines Pow4Gate (a^4*b - c, the
 * HyperPlonk-style high-degree protocol).
 *
 * Simplifications relative to a production system are documented in
 * DESIGN.md Sec. 6 (notably: wiring consistency between gates is not
 * proven — the committed tables are only shown to be gate-consistent —
 * and soundness parameters are test-sized by default).
 */

#include <array>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "circuit/Circuit.h"
#include "core/TensorPcs.h"
#include "hash/Transcript.h"
#include "sumcheck/Sumcheck.h"

namespace bzk {

/**
 * Stage boundaries the interruptible prover reports, matching the
 * pipeline's module groups. The encoder and Merkle modules are fused
 * inside TensorPcs::commit, so their boundary is observed at commit
 * granularity: Encode fires once the first table is committed, Merkle
 * once all three are.
 */
enum class ProveStage : uint8_t {
    /** First table committed (encoder module has run). */
    Encode,
    /** All tables committed (Merkle module has run). */
    Merkle,
    /** Gate challenge derived from the transcript. */
    FiatShamir,
    /** Gate sum-check finished (openings still outstanding). */
    Sumcheck,
};

/**
 * Called at each ProveStage boundary of an interruptible prove. Return
 * false to abandon the proof there — the crash/recovery harness uses
 * this to model a process dying between pipeline stages.
 */
using ProveStageHook = std::function<bool(ProveStage)>;

/** A complete proof under gate @p Gate. */
template <typename F, typename Gate>
struct GateProof
{
    PcsCommitment commit_a;
    PcsCommitment commit_b;
    PcsCommitment commit_c;
    /** Gate sum-check: Gate::kEvals evaluations per round. */
    RoundsProof<F> gate_sc;
    /** Claimed openings of the three tables at the sum-check point. */
    F va{};
    F vb{};
    F vc{};
    PcsEvalProof<F> open_a;
    PcsEvalProof<F> open_b;
    PcsEvalProof<F> open_c;

    /** Rough wire size of the proof in bytes (paper: "several MB"). */
    size_t
    sizeBytes() const
    {
        size_t bytes = 3 * 32; // roots
        for (const auto &round : gate_sc.rounds)
            bytes += round.size() * F::kNumBytes;
        bytes += 3 * F::kNumBytes;
        for (const PcsEvalProof<F> *open : {&open_a, &open_b, &open_c}) {
            bytes += (open->eval_row.size() + open->proximity_row.size()) *
                     F::kNumBytes;
            for (const auto &column : open->columns)
                bytes += column.size() * F::kNumBytes;
            for (const auto &path : open->paths)
                bytes += path.siblings.size() * 32 + 8;
        }
        return bytes;
    }
};

/**
 * Prover + verifier for gate @p Gate and a fixed circuit-size class.
 *
 * The prover keeps its working set across proofs: the three tables'
 * commitment states with their codeword matrices, the sum-check's
 * folded tables, its suffix weights and the three evaluation rows it
 * hands the openings. The first prove allocates
 * them and every later prove reuses them, so a prover that proves
 * repeatedly allocates nothing large after its first proof. The
 * committed tables themselves are borrowed, never copied. A GateSnark
 * therefore runs one prove at a time: prove() and proveInterruptible()
 * are non-const because they write that working set, and two threads
 * must not call them on one object at once. verify() reads none of it
 * and may run concurrently with anything.
 */
template <typename F, typename Gate>
class GateSnark
{
  public:
    /**
     * @param n_vars constraint tables have 2^n_vars rows.
     * @param seed   shared encoder seed (part of the public parameters).
     */
    GateSnark(unsigned n_vars, uint64_t seed)
        : n_vars_(n_vars), pcs_(n_vars, seed)
    {
    }

    /** The PCS instance (exposed for cost accounting). */
    const TensorPcs<F> &pcs() const { return pcs_; }

    /**
     * Attach a host execution context: commits, sum-check rounds, and
     * openings run across its thread pool. The context must outlive the
     * prover calls; proofs are bit-identical for any thread count.
     */
    void setExec(const exec::ExecContext *exec) { exec_ = exec; }

    /** Prove that the tables satisfy G(a, b, c) = 0 row-wise. */
    GateProof<F, Gate>
    prove(const ConstraintTables<F> &tables,
          std::span<const F> public_inputs)
    {
        return *proveInterruptible(tables, public_inputs, {});
    }

    /**
     * prove() with a stage-boundary hook: @p keep_going is called at
     * each ProveStage boundary and may return false to abandon the
     * proof there (nullopt). With an empty hook this IS prove() — the
     * same statements in the same order — so completed proofs are
     * bit-identical either way.
     */
    std::optional<GateProof<F, Gate>>
    proveInterruptible(const ConstraintTables<F> &tables,
                       std::span<const F> public_inputs,
                       const ProveStageHook &keep_going)
    {
        if (tables.n_vars != n_vars_)
            panic("GateSnark::prove: tables have %u vars, system built "
                  "for %u",
                  tables.n_vars, n_vars_);
        if (!work_) {
            work_.emplace();
            for (std::vector<F> &row : work_->rows)
                row.resize(size_t{1} << pcs_.colVars());
        }
        auto &[st_a, st_b, st_c] = work_->committed;
        auto &[fa, fb, fc] = work_->folded;
        auto &[row_a, row_b, row_c] = work_->rows;

        Transcript transcript(Gate::kDomain);
        absorbStatement(transcript, public_inputs);

        // 1. Commit (encoder + Merkle modules).
        GateProof<F, Gate> proof;
        pcs_.commit(tables.a, st_a, exec_);
        if (keep_going && !keep_going(ProveStage::Encode))
            return std::nullopt;
        pcs_.commit(tables.b, st_b, exec_);
        pcs_.commit(tables.c, st_c, exec_);
        if (keep_going && !keep_going(ProveStage::Merkle))
            return std::nullopt;
        proof.commit_a = st_a.commitment;
        proof.commit_b = st_b.commitment;
        proof.commit_c = st_c.commitment;

        // 2. Gate challenge.
        std::vector<F> tau = challengeTau(transcript, proof);
        if (keep_going && !keep_going(ProveStage::FiatShamir))
            return std::nullopt;

        // 3. Gate sum-check over eq * G(a, b, c). Round 0 reads the
        // tables; the folded halves end as the tables' values at the
        // final point, which are the openings. After rowVars rounds the
        // folded tables are the evaluation rows, which it copies out.
        proof.gate_sc = proveGateSumcheck<Gate>(
            tau, {tables.a, tables.b, tables.c}, {&fa, &fb, &fc},
            work_->weights, Gate::kLabels, transcript, nullptr, exec_,
            {row_a, row_b, row_c});
        proof.va = fa[0];
        proof.vb = fb[0];
        proof.vc = fc[0];
        if (keep_going && !keep_going(ProveStage::Sumcheck))
            return std::nullopt;

        // 4. Open the tables at the final point.
        absorbOpenings(transcript, proof);
        proof.open_a = pcs_.open(st_a, row_a, transcript, exec_);
        proof.open_b = pcs_.open(st_b, row_b, transcript, exec_);
        proof.open_c = pcs_.open(st_c, row_c, transcript, exec_);
        return proof;
    }

    /** Verify a proof against the public inputs. */
    bool
    verify(const GateProof<F, Gate> &proof,
           std::span<const F> public_inputs) const
    {
        Transcript transcript(Gate::kDomain);
        absorbStatement(transcript, public_inputs);
        std::vector<F> tau = challengeTau(transcript, proof);

        // Sum-check verification: the claimed total is zero.
        auto verdict = verifyGateSumcheck<Gate>(F::zero(), proof.gate_sc,
                                                Gate::kLabels, transcript);
        if (!verdict.ok || verdict.point.size() != n_vars_)
            return false;
        const std::vector<F> &point = verdict.point;

        // Final algebraic check against the claimed openings.
        if (eqEval(tau, point) *
                ff::gateValue<Gate::kPower>(proof.va, proof.vb, proof.vc) !=
            verdict.final_claim)
            return false;

        absorbOpenings(transcript, proof);
        return pcs_.verify(proof.commit_a, point, proof.va, proof.open_a,
                           transcript) &&
               pcs_.verify(proof.commit_b, point, proof.vb, proof.open_b,
                           transcript) &&
               pcs_.verify(proof.commit_c, point, proof.vc, proof.open_c,
                           transcript);
    }

  private:
    void
    absorbStatement(Transcript &transcript,
                    std::span<const F> public_inputs) const
    {
        uint8_t n = static_cast<uint8_t>(n_vars_);
        transcript.absorb("n_vars", std::span<const uint8_t>(&n, 1));
        for (const F &x : public_inputs)
            transcript.absorbField("public", x);
    }

    /** Absorb the three roots, then draw tau (one entry per variable). */
    std::vector<F>
    challengeTau(Transcript &transcript,
                 const GateProof<F, Gate> &proof) const
    {
        transcript.absorbDigest("com.a", proof.commit_a.root);
        transcript.absorbDigest("com.b", proof.commit_b.root);
        transcript.absorbDigest("com.c", proof.commit_c.root);
        std::vector<F> tau(n_vars_);
        for (auto &t : tau)
            t = transcript.template challengeField<F>("tau");
        return tau;
    }

    static void
    absorbOpenings(Transcript &transcript, const GateProof<F, Gate> &proof)
    {
        transcript.absorbField("open.va", proof.va);
        transcript.absorbField("open.vb", proof.vb);
        transcript.absorbField("open.vc", proof.vc);
    }

    /** The prover's working set, reused by every prove (see above). */
    struct Workspace
    {
        std::array<PcsProverState<F>, 3> committed;
        std::array<std::vector<F>, 3> folded;
        std::vector<F> weights;
        /** The evaluation rows, 2^colVars entries each. */
        std::array<std::vector<F>, 3> rows;
    };

    unsigned n_vars_;
    TensorPcs<F> pcs_;
    const exec::ExecContext *exec_ = nullptr;
    /** Built by the first prove, so construction does no work. */
    std::optional<Workspace> work_;
};

} // namespace bzk

#endif // BZK_CORE_GATESNARK_H_
