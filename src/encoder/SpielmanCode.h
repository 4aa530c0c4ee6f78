#ifndef BZK_ENCODER_SPIELMANCODE_H_
#define BZK_ENCODER_SPIELMANCODE_H_

/**
 * @file
 * Functional Spielman-style linear-time encoder (paper Sec. 2.4 / 3.3).
 *
 * Every encode runs the paper's pipelined formulation (Figure 6): a
 * forward pass of first-multiplications (A matrices), the dense base
 * case, then a reverse pass of second-multiplications (B matrices) — no
 * recursion, so the same code path maps one-to-one onto the stage
 * kernels the GPU drivers charge for. runStages() is that sequence,
 * written once; it drives a stage on one row (Montgomery elements or
 * canonical residues) or on an 8-row IFMA batch.
 */

#include <algorithm>
#include <span>
#include <type_traits>
#include <vector>

#include "encoder/SparseMatrix.h"
#include "encoder/Topology.h"
#include "ff/FieldBackend.h"
#include "util/Log.h"

namespace bzk {

/** A concrete instance of the rate-1/2 recursive code. */
template <typename F>
class SpielmanCode
{
  public:
    /** Build all level matrices for message length @p k from @p seed. */
    SpielmanCode(size_t k, uint64_t seed) : topo_(k, seed)
    {
        for (size_t lvl = 0; lvl < topo_.levels().size(); ++lvl) {
            const EncoderLevel &level = topo_.levels()[lvl];
            Rng rng_a(topo_.seedA(lvl));
            Rng rng_b(topo_.seedB(lvl));
            a_.emplace_back(level.a_degrees, level.k, rng_a);
            b_.emplace_back(level.b_degrees, level.k / 2, rng_b);
        }
        // Dense base matrix M (base_k x base_k).
        Rng rng(topo_.seedBase());
        base_ = SparseMatrix<F>::dense(topo_.baseSize(), topo_.baseSize(),
                                       rng);
    }

    /** Message length k. */
    size_t messageLength() const { return topo_.messageLength(); }

    /** Codeword length 2k. */
    size_t codewordLength() const { return topo_.codewordLength(); }

    /** The shared topology (degree sequences, seeds). */
    const EncoderTopology &topology() const { return topo_; }

    /**
     * Encode @p message (length k) into a codeword of length 2k.
     * Linear in the message by construction. With a non-null @p exec
     * every stage splits its rows across host threads; codewords are
     * bit-identical either way.
     */
    std::vector<F>
    encode(std::span<const F> message,
           const exec::ExecContext *exec = nullptr) const
    {
        std::vector<F> out(codewordLength());
        encodeInto(message, out, exec);
        return out;
    }

    /** encode() straight into @p out (exactly 2k elements). */
    void
    encodeInto(std::span<const F> message, std::span<F> out,
               const exec::ExecContext *exec = nullptr) const
    {
        encodeRow(message, out, exec);
    }

    /**
     * The canonical form of encode(): out[i] is the canonical residue
     * (the integer in [0, p)) of encode(message)[i]. The code is
     * linear with integer coefficients and REDC is linear, so encoding
     * the message's canonical values gives exactly that.
     */
    void
    encodeInto(std::span<const F> message, std::span<U256> out) const
    {
        encodeRow(message, out, nullptr);
    }

    /**
     * Encode every row of the row-major table @p rows (rows of k) into
     * the matrix @p out (rows of 2k): out's row r is the canonical form
     * of encode(row r). Under kIfma, whole batches of ff::kRowBatch
     * rows run through each stage at once, one row per lane, with the
     * message's REDC fused into the batch's load; otherwise, and when
     * the row count is not a multiple of the batch, every row runs on
     * its own. With a non-null @p exec, each thread encodes one
     * contiguous share of the rows or batches. Both paths store the
     * same residues.
     */
    void
    encodeRows(std::span<const F> rows, std::span<U256> out,
               const exec::ExecContext *exec = nullptr) const
    {
        const size_t m = messageLength();
        const size_t n = codewordLength();
        const size_t k = rows.size() / m;
        if (rows.size() != k * m || out.size() != k * n)
            panic("SpielmanCode::encodeRows: %zu message and %zu codeword "
                  "elements for rows of %zu",
                  rows.size(), out.size(), m);
        if (exec)
            exec->setRegion("encoder");
        const size_t batch =
            ff::rowBatchActive() && k % ff::kRowBatch == 0 ? ff::kRowBatch
                                                           : 1;
        auto encode_items = [&](size_t begin, size_t end) {
            for (size_t item = begin; item < end; ++item) {
                const F *in = rows.data() + item * batch * m;
                U256 *cw = out.data() + item * batch * n;
                if (batch == 1)
                    encodeRow(std::span<const F>(in, m),
                              std::span<U256>(cw, n), nullptr);
                else
                    encodeBatch(in, cw);
            }
        };
        if (exec)
            exec->parallelFor(k / batch, /*serial_cutoff=*/2, encode_items);
        else
            encode_items(0, k / batch);
    }

  private:
    /**
     * The stage sequence, in place in one codeword. The codeword nests,
     * z_l = [x_l | z_{l+1} | B_l z_{l+1}], so every level lives at a
     * fixed offset: level l's message x_l starts at o_l = k_0 + ... +
     * k_{l-1}, A_l x_l = x_{l+1} goes right after it at o_l + k_l,
     * B_l z_{l+1} at o_l + 3k_l/2, and the base product M x_d at
     * o_d + k_d. @p stage(matrix, in, out) multiplies matrix by the
     * matrix.cols() values at offset in and writes matrix.rows()
     * values at offset out; every stage reads and writes disjoint
     * ranges.
     */
    template <typename Stage>
    void
    runStages(const Stage &stage) const
    {
        // Forward pass: x_{l+1} = A_l x_l (first multiplications).
        size_t depth = a_.size();
        size_t o = 0;
        for (size_t l = 0; l < depth; ++l) {
            size_t k_l = topo_.levels()[l].k;
            stage(a_[l], o, o + k_l);
            o += k_l;
        }
        // Base case: z_d = [x_d | M x_d].
        stage(base_, o, o + base_.cols());
        // Reverse pass: z_l = [x_l | z_{l+1} | B_l z_{l+1}] (second
        // multiplications, smallest stage first — Figure 6).
        for (size_t l = depth; l-- > 0;) {
            size_t k_l = topo_.levels()[l].k;
            o -= k_l;
            stage(b_[l], o + k_l, o + 3 * k_l / 2);
        }
    }

    /**
     * One message through the stages on one row of T: F keeps
     * Montgomery form, U256 takes the message's canonical values and
     * yields canonical residues.
     */
    template <typename T>
    void
    encodeRow(std::span<const F> message, std::span<T> out,
              const exec::ExecContext *exec) const
    {
        if (message.size() != messageLength())
            panic("SpielmanCode::encode: message length %zu != %zu",
                  message.size(), messageLength());
        if (out.size() != codewordLength())
            panic("SpielmanCode::encodeInto: output length %zu != %zu",
                  out.size(), codewordLength());
        if (exec)
            exec->setRegion("encoder");
        if constexpr (std::is_same_v<T, F>)
            std::copy(message.begin(), message.end(), out.begin());
        else
            for (size_t i = 0; i < message.size(); ++i)
                out[i] = message[i].toU256();
        runStages([&](const SparseMatrix<F> &matrix, size_t in, size_t at) {
            matrix.mulVec(std::span<const T>(out.data() + in, matrix.cols()),
                          out.subspan(at, matrix.rows()), exec);
        });
    }

    /**
     * ff::kRowBatch rows at @p in (k apart) through the stages in the
     * lanes of a 2k-position buffer, stored canonical at @p out (2k
     * apart). The buffer is one per thread, grown to the longest
     * codeword and kept: a pool runs each share on the same thread in
     * every call, so a repeat encode at the same size allocates none.
     */
    void
    encodeBatch(const F *in, U256 *out) const
    {
        thread_local std::vector<ff::RowLanes> lanes;
        if (lanes.size() < codewordLength())
            lanes.resize(codewordLength());
        ff::RowLanes *buffer = lanes.data();
        ff::loadRowBatch(in, messageLength(), messageLength(), buffer);
        runStages([&](const SparseMatrix<F> &matrix, size_t from,
                      size_t at) {
            matrix.mulBatch(buffer + from, buffer + at);
        });
        ff::storeRowBatch(buffer, codewordLength(), out, codewordLength());
    }

    EncoderTopology topo_;
    std::vector<SparseMatrix<F>> a_;
    std::vector<SparseMatrix<F>> b_;
    SparseMatrix<F> base_;
};

} // namespace bzk

#endif // BZK_ENCODER_SPIELMANCODE_H_
