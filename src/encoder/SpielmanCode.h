#ifndef BZK_ENCODER_SPIELMANCODE_H_
#define BZK_ENCODER_SPIELMANCODE_H_

/**
 * @file
 * Functional Spielman-style linear-time encoder (paper Sec. 2.4 / 3.3).
 *
 * encode() is implemented exactly as the paper's pipelined formulation
 * (Figure 6): a forward pass of first-multiplications (A matrices), the
 * dense base case, then a reverse pass of second-multiplications
 * (B matrices) — no recursion, so the same code path maps one-to-one
 * onto the stage kernels the GPU drivers charge for.
 */

#include <algorithm>
#include <span>
#include <vector>

#include "encoder/SparseMatrix.h"
#include "encoder/Topology.h"
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
        size_t bk = topo_.baseSize();
        base_.resize(bk * bk);
        for (auto &c : base_)
            c = static_cast<uint32_t>(rng.nextBounded(0xffffffffULL)) + 1;
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
     * every sparse stage (and the dense base case) splits its rows
     * across host threads; codewords are bit-identical either way.
     */
    std::vector<F>
    encode(std::span<const F> message,
           const exec::ExecContext *exec = nullptr) const
    {
        std::vector<F> out(codewordLength());
        encodeInto(message, out, exec);
        return out;
    }

    /**
     * encode() straight into @p out (exactly 2k elements), with no
     * temporaries. The codeword nests, z_l = [x_l | z_{l+1} |
     * B_l z_{l+1}], so every level lives at a fixed offset of the
     * output: level l's message x_l starts at o_l = k_0 + ... +
     * k_{l-1}, A_l x_l = x_{l+1} goes right after it at o_l + k_l,
     * B_l z_{l+1} at o_l + 3k_l/2, and the base product M x_d at
     * o_d + k_d. Every stage reads and writes disjoint ranges.
     */
    void
    encodeInto(std::span<const F> message, std::span<F> out,
               const exec::ExecContext *exec = nullptr) const
    {
        if (message.size() != messageLength())
            panic("SpielmanCode::encode: message length %zu != %zu",
                  message.size(), messageLength());
        if (out.size() != codewordLength())
            panic("SpielmanCode::encodeInto: output length %zu != %zu",
                  out.size(), codewordLength());
        if (exec)
            exec->setRegion("encoder");

        // Forward pass: x_{l+1} = A_l x_l (first multiplications).
        std::copy(message.begin(), message.end(), out.begin());
        size_t depth = a_.size();
        size_t o = 0;
        for (size_t l = 0; l < depth; ++l) {
            size_t k_l = topo_.levels()[l].k;
            a_[l].mulVec(out.subspan(o, k_l),
                         out.subspan(o + k_l, a_[l].rows()), exec);
            o += k_l;
        }

        // Base case: z_d = [x_d | M x_d], straight off the 32-bit rows.
        size_t bk = topo_.baseSize();
        const F *x_d = out.data() + o;
        F *m_x = out.data() + o + bk;
        auto base_rows = [&](size_t begin, size_t end) {
            for (size_t r = begin; r < end; ++r) {
                typename F::SmallDot acc;
                for (size_t c = 0; c < bk; ++c)
                    acc.add(x_d[c], base_[r * bk + c]);
                m_x[r] = acc.result();
            }
        };
        if (exec)
            exec->parallelFor(bk, /*serial_cutoff=*/64, base_rows);
        else
            base_rows(0, bk);

        // Reverse pass: z_l = [x_l | z_{l+1} | B_l z_{l+1}] (second
        // multiplications, smallest stage first — Figure 6).
        for (size_t l = depth; l-- > 0;) {
            size_t k_l = topo_.levels()[l].k;
            o -= k_l;
            b_[l].mulVec(out.subspan(o + k_l, k_l / 2),
                         out.subspan(o + 3 * k_l / 2, k_l / 2), exec);
        }
    }

  private:
    EncoderTopology topo_;
    std::vector<SparseMatrix<F>> a_;
    std::vector<SparseMatrix<F>> b_;
    std::vector<uint32_t> base_;
};

} // namespace bzk

#endif // BZK_ENCODER_SPIELMANCODE_H_
