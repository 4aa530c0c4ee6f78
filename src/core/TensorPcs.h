#ifndef BZK_CORE_TENSORPCS_H_
#define BZK_CORE_TENSORPCS_H_

/**
 * @file
 * Tensor-code polynomial commitment (Brakedown/Orion style) — the
 * composition of the paper's modules in Figure 7: the polynomial's
 * evaluation table is arranged as a k x m matrix, every row is encoded
 * with the Spielman linear-time encoder, and the codeword columns are
 * hashed into a Merkle tree whose root is the commitment.
 *
 * Opening at a point r = (r_row, r_col) sends
 *  - the eq(r_row)-combination of the rows (the "evaluation row"),
 *    which the caller supplies: the gate sum-check's folded tables
 *    already are it, and evalRow() builds it otherwise;
 *  - a gamma-powers combination of the rows (the "proximity row"),
 *  - a few spot-checked codeword columns with Merkle paths.
 * The verifier re-encodes both combined rows and checks them against the
 * opened columns, then reads the evaluation off the evaluation row.
 *
 * Simplifications vs. production Orion are listed in DESIGN.md Sec. 6
 * (fixed soundness parameters, no zero-knowledge masking row).
 */

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "encoder/SpielmanCode.h"
#include "exec/ExecContext.h"
#include "ff/FieldBackend.h"
#include "hash/Sha256.h"
#include "hash/Sha256Kernels.h"
#include "hash/Transcript.h"
#include "merkle/MerkleTree.h"
#include "poly/Multilinear.h"
#include "util/Log.h"

namespace bzk {

/** Codeword columns per column group: one per SHA-256 lane. */
inline constexpr size_t kLeafBlock = hash::detail::kShaLanes;

/**
 * Column groups per stripe of hashColumns' 16-lane path: their states,
 * 512 bytes each, stay on the stack while the stripe walks the rows.
 */
inline constexpr size_t kLeafStripe = 32;

/**
 * The per-column path of hashColumns, for any @p width: one running
 * SHA-256 per column, kLeafBlock columns per pass over the rows, each
 * taking two rows at a time as one 64-byte block through the
 * dispatched single-message kernel. It serves the tails, the
 * verifier's one-column leaves and CPUs without AVX-512.
 */
inline void
hashColumnRuns(const U256 *block, size_t rows, size_t stride, size_t width,
               Digest *out)
{
    auto put = [](const U256 &v, uint8_t *dst) {
        if constexpr (std::endian::native == std::endian::little)
            std::memcpy(dst, v.limb.data(), sizeof(v.limb));
        else
            u256ToBytes(v, std::span<uint8_t, 32>(dst, 32));
    };
    for (size_t col = 0; col < width; col += kLeafBlock) {
        size_t n = std::min(kLeafBlock, width - col);
        Sha256 hashers[kLeafBlock];
        uint8_t pair[64] = {};
        size_t row = 0;
        for (; row + 1 < rows; row += 2) {
            const U256 *top = block + row * stride + col;
            const U256 *bottom = top + stride;
            for (size_t j = 0; j < n; ++j) {
                put(top[j], pair);
                put(bottom[j], pair + 32);
                hashers[j].update(pair);
            }
        }
        if (row < rows) {
            for (size_t j = 0; j < n; ++j) {
                put(block[row * stride + col + j], pair);
                hashers[j].update(std::span<const uint8_t>(pair, 32));
            }
        }
        for (size_t j = 0; j < n; ++j)
            out[col + j] = hashers[j].finalize();
    }
}

/**
 * hashColumns' 16-lane path over @p groups (at most kLeafStripe)
 * adjacent groups of kLeafBlock columns. Every group advances one row
 * pair at a time, so the stripe reads the matrix in address order and
 * the hardware prefetcher keeps up; lane j of a group hashes its
 * column j, a row pair per block. Call only when
 * hash::detail::avx512Supported() on a little-endian host.
 */
inline void
hashColumnStripe(const U256 *block, size_t rows, size_t stride,
                 size_t groups, Digest *out)
{
    using namespace hash::detail;
    constexpr size_t kGroupBytes = kLeafBlock * sizeof(U256);
    const auto *base = reinterpret_cast<const uint8_t *>(block);
    const size_t row_bytes = stride * sizeof(U256);
    Lanes16 states[kLeafStripe];
    for (size_t g = 0; g < groups; ++g)
        initLanes16(states[g]);
    size_t row = 0;
    for (; row + 1 < rows; row += 2) {
        const uint8_t *top = base + row * row_bytes;
        for (size_t g = 0; g < groups; ++g)
            compress16Cells(states[g], top + g * kGroupBytes,
                            top + row_bytes + g * kGroupBytes);
    }
    // The padded last block, as Sha256::finalize builds it for a
    // message of 32 * rows bytes: an odd row's cell, or a 0x80 cell,
    // then a cell that ends in the 64-bit big-endian bit length.
    const bool odd = row < rows;
    uint8_t mark[kGroupBytes] = {};
    uint8_t length[kGroupBytes] = {};
    const uint64_t bits = uint64_t{256} * rows;
    for (size_t j = 0; j < kLeafBlock; ++j) {
        uint8_t *cell = length + j * sizeof(U256);
        if (odd)
            cell[0] = 0x80;
        else
            mark[j * sizeof(U256)] = 0x80;
        for (int b = 0; b < 8; ++b)
            cell[24 + b] = static_cast<uint8_t>(bits >> (56 - 8 * b));
    }
    for (size_t g = 0; g < groups; ++g) {
        compress16Cells(states[g],
                        odd ? base + row * row_bytes + g * kGroupBytes
                            : mark,
                        length);
        lanes16Digests(states[g], out + g * kLeafBlock);
    }
}

/**
 * The Merkle leaves of @p width adjacent columns of a row-major matrix
 * of canonical residues: leaf j is the SHA-256 of column j's @p rows
 * values as 32 little-endian bytes each, in row order. Column j's value
 * in row r is block[r * stride + j]. The matrix is hashed where it
 * lies, with no conversion and no scratch. Where the CPU has AVX-512,
 * whole groups of kLeafBlock columns run 16 lanes at a time in stripes
 * of kLeafStripe groups (hashColumnStripe); the other columns, and all
 * of them elsewhere, take hashColumnRuns. TensorPcs::commit passes
 * whole groups of its k x 2m matrix, verify each opened column alone.
 */
inline void
hashColumns(const U256 *block, size_t rows, size_t stride, size_t width,
            Digest *out)
{
    size_t groups = 0;
    if constexpr (std::endian::native == std::endian::little)
        if (hash::detail::avx512Supported())
            groups = width / kLeafBlock;
    for (size_t g = 0; g < groups; g += kLeafStripe)
        hashColumnStripe(block + g * kLeafBlock, rows, stride,
                         std::min(kLeafStripe, groups - g),
                         out + g * kLeafBlock);
    size_t done = groups * kLeafBlock;
    hashColumnRuns(block + done, rows, stride, width - done, out + done);
}

/** Verifier-side commitment: just the Merkle root. */
struct PcsCommitment
{
    Digest root;
    unsigned n_vars = 0;
};

/**
 * Prover-side state retained between commit and open. A commit refills
 * it; a state kept across commits reuses its codeword matrix.
 */
template <typename F>
struct PcsProverState
{
    PcsCommitment commitment;
    /**
     * The committed evaluation table (k*m entries), borrowed: the
     * caller keeps it alive and unchanged until its last open.
     */
    std::span<const F> poly;
    /**
     * Row codewords as one row-major k x 2m matrix of canonical
     * residues, the integers in [0, p) whose 32 little-endian bytes the
     * leaves hash: row r's codeword is codewords[r*2m, (r+1)*2m).
     */
    std::vector<U256> codewords;
    /** Merkle tree over the 2m column hashes. */
    MerkleTree tree = MerkleTree::buildFromLeaves({Digest{}});
};

/** Opening proof for one evaluation. */
template <typename F>
struct PcsEvalProof
{
    /** eq(r_row)-weighted row combination, length m. */
    std::vector<F> eval_row;
    /** gamma-powers row combination, length m. */
    std::vector<F> proximity_row;
    /** Spot-checked codeword columns (each k entries). */
    std::vector<std::vector<F>> columns;
    /** Merkle paths for the opened columns. */
    std::vector<MerklePath> paths;
};

/** The tensor-code PCS for 2^n-entry multilinear polynomials. */
template <typename F>
class TensorPcs
{
  public:
    /**
     * @param n_vars polynomial size is 2^n_vars; must be >= 6 so the
     *        column dimension reaches the encoder's base size.
     * @param seed   deterministic encoder graphs (shared with verifier).
     * @param column_openings spot-check count (soundness parameter).
     */
    TensorPcs(unsigned n_vars, uint64_t seed, size_t column_openings = 8)
        : n_vars_(n_vars),
          col_vars_(colVarsFor(n_vars)),
          row_vars_(n_vars - colVarsFor(n_vars)),
          column_openings_(column_openings),
          code_(size_t{1} << col_vars_, seed)
    {
    }

    /** log2 of the row count k. */
    unsigned rowVars() const { return row_vars_; }

    /** log2 of the row length m (the encoder's message length). */
    unsigned colVars() const { return col_vars_; }

    /** Spot-check count. */
    size_t columnOpenings() const { return column_openings_; }

    /** The underlying code (exposed for cost accounting). */
    const SpielmanCode<F> &code() const { return code_; }

    /**
     * Commit to a 2^n_vars evaluation table into @p state. The state
     * borrows @p poly (PcsProverState::poly) and reuses its codeword
     * matrix when that already has k x 2m entries: every entry is
     * rewritten, so nothing is cleared. With a non-null @p exec the k
     * row encodings, the 2m column hashes, and every Merkle layer run
     * across host threads; the commitment is bit-identical for any
     * thread count.
     */
    void
    commit(std::span<const F> poly, PcsProverState<F> &state,
           const exec::ExecContext *exec = nullptr) const
    {
        size_t k = size_t{1} << row_vars_;
        size_t m = size_t{1} << col_vars_;
        if (poly.size() != k * m)
            panic("TensorPcs::commit: table size %zu != 2^%u", poly.size(),
                  n_vars_);

        // Every row encodes into its slice of one flat canonical matrix,
        // 8 rows at a time under IFMA (SpielmanCode::encodeRows).
        state.codewords.resize(k * 2 * m);
        code_.encodeRows(poly, state.codewords, exec);

        // Hash each of the 2m codeword columns into a leaf. Threads
        // split whole groups of kLeafBlock columns (2m >= 64 is a
        // multiple of 16), one hashColumns call per thread's share.
        std::vector<Digest> leaves(2 * m);
        if (exec)
            exec->setRegion("merkle");
        auto hash_groups = [&](size_t begin, size_t end) {
            hashColumns(state.codewords.data() + begin * kLeafBlock, k,
                        2 * m, (end - begin) * kLeafBlock,
                        leaves.data() + begin * kLeafBlock);
        };
        size_t groups = 2 * m / kLeafBlock;
        if (exec)
            exec->parallelFor(groups, /*serial_cutoff=*/2, hash_groups);
        else
            hash_groups(0, groups);
        state.tree = MerkleTree::buildFromLeaves(std::move(leaves), exec);
        state.commitment.root = state.tree.root();
        state.commitment.n_vars = n_vars_;
        state.poly = poly;
    }

    /** A temporary table would dangle in the state: keep it named. */
    void commit(std::vector<F> &&poly, PcsProverState<F> &state,
                const exec::ExecContext *exec = nullptr) const = delete;

    /**
     * The row combination sum_row coeffs[row] * (row of the committed
     * table), m entries: the one routine behind both opened rows (the
     * proximity row here, evalRow's for callers without a sum-check).
     * @p exec parallelizes it across columns, one
     * ff::combineRowsLanes call per thread's share, which under IFMA
     * sums each column's k products unreduced and reduces them once.
     * Field sums are exact, so the row is the same for any split and
     * backend.
     */
    std::vector<F>
    combineRows(const PcsProverState<F> &state, std::span<const F> coeffs,
                const exec::ExecContext *exec = nullptr) const
    {
        size_t k = size_t{1} << row_vars_;
        size_t m = size_t{1} << col_vars_;
        if (coeffs.size() != k)
            panic("TensorPcs::combineRows: %zu coefficients for %zu rows",
                  coeffs.size(), k);
        std::vector<F> out(m);
        auto combine_cols = [&](size_t begin, size_t end) {
            ff::combineRowsLanes(state.poly.data() + begin, m, coeffs.data(),
                                 k, out.data() + begin, end - begin);
        };
        if (exec)
            exec->parallelFor(m, /*serial_cutoff=*/8, combine_cols);
        else
            combine_cols(0, m);
        return out;
    }

    /**
     * The evaluation row for @p point (n_vars entries, the first
     * row_vars select the row): combineRows with eq(r_row), for a
     * caller that has no sum-check to take it from.
     */
    std::vector<F>
    evalRow(const PcsProverState<F> &state, const std::vector<F> &point,
            const exec::ExecContext *exec = nullptr) const
    {
        if (point.size() != n_vars_)
            panic("TensorPcs::evalRow: point size %zu != %u", point.size(),
                  n_vars_);
        std::vector<F> r_row(point.begin(), point.begin() + row_vars_);
        return combineRows(state, eqTable(r_row), exec);
    }

    /**
     * Produce an opening proof with the caller's @p eval_row, the
     * eq(r_row)-combination of the committed rows for the opened point
     * (m entries): the proof sends it, and open() builds only the
     * proximity row (combineRows) and the column openings.
     */
    PcsEvalProof<F>
    open(const PcsProverState<F> &state, std::span<const F> eval_row,
         Transcript &transcript,
         const exec::ExecContext *exec = nullptr) const
    {
        size_t k = size_t{1} << row_vars_;
        size_t m = size_t{1} << col_vars_;
        if (eval_row.size() != m)
            panic("TensorPcs::open: evaluation row of %zu, want %zu",
                  eval_row.size(), m);

        // Proximity combination with gamma powers, gamma derived after
        // the commitment was absorbed by the caller.
        F gamma = transcript.template challengeField<F>("pcs.gamma");
        std::vector<F> gamma_pow(k);
        F g = F::one();
        for (size_t row = 0; row < k; ++row) {
            gamma_pow[row] = g;
            g *= gamma;
        }
        if (exec)
            exec->setRegion("open");

        PcsEvalProof<F> proof;
        proof.eval_row.assign(eval_row.begin(), eval_row.end());
        proof.proximity_row = combineRows(state, gamma_pow, exec);

        for (const F &v : proof.eval_row)
            transcript.absorbField("pcs.eval_row", v);
        for (const F &v : proof.proximity_row)
            transcript.absorbField("pcs.prox_row", v);

        // The opened columns go back to Montgomery form.
        auto cols = transcript.challengeDistinctIndices(
            "pcs.cols", column_openings_, 2 * m);
        std::vector<U256> canonical(k);
        for (uint64_t col : cols) {
            for (size_t row = 0; row < k; ++row)
                canonical[row] = state.codewords[row * 2 * m + col];
            std::vector<F> column(k);
            ff::fromCanonicalLanes(canonical.data(), column.data(), k);
            proof.columns.push_back(std::move(column));
            proof.paths.push_back(state.tree.path(col));
        }
        return proof;
    }

    /**
     * Verify an opening: Merkle membership of each opened column,
     * consistency of both combined rows with the columns under the
     * code's linearity, and the claimed @p value against the evaluation
     * row. The @p transcript must be in the same state as the prover's
     * was at open().
     */
    bool
    verify(const PcsCommitment &commitment, const std::vector<F> &point,
           const F &value, const PcsEvalProof<F> &proof,
           Transcript &transcript) const
    {
        if (commitment.n_vars != n_vars_ || point.size() != n_vars_)
            return false;
        size_t k = size_t{1} << row_vars_;
        size_t m = size_t{1} << col_vars_;
        if (proof.eval_row.size() != m || proof.proximity_row.size() != m)
            return false;
        if (proof.columns.size() != column_openings_ ||
            proof.paths.size() != column_openings_)
            return false;

        F gamma = transcript.template challengeField<F>("pcs.gamma");
        for (const F &v : proof.eval_row)
            transcript.absorbField("pcs.eval_row", v);
        for (const F &v : proof.proximity_row)
            transcript.absorbField("pcs.prox_row", v);
        auto cols = transcript.challengeDistinctIndices(
            "pcs.cols", column_openings_, 2 * m);

        // Re-encode both rows once; linearity makes the codeword of the
        // combination equal the combination of the row codewords.
        auto eval_code = code_.encode(proof.eval_row);
        auto prox_code = code_.encode(proof.proximity_row);

        std::vector<F> r_row(point.begin(), point.begin() + row_vars_);
        auto eq_row = eqTable(r_row);

        std::vector<F> gamma_pow(k);
        F g = F::one();
        for (size_t row = 0; row < k; ++row) {
            gamma_pow[row] = g;
            g *= gamma;
        }

        std::vector<U256> canonical(k);
        for (size_t i = 0; i < cols.size(); ++i) {
            uint64_t col = cols[i];
            const auto &column = proof.columns[i];
            if (column.size() != k)
                return false;
            // Merkle membership.
            for (size_t row = 0; row < k; ++row)
                canonical[row] = column[row].toU256();
            Digest leaf;
            hashColumns(canonical.data(), k, 1, 1, &leaf);
            if (proof.paths[i].leaf_index != col)
                return false;
            if (!MerkleTree::verifyPath(commitment.root, leaf,
                                        proof.paths[i]))
                return false;

            // Consistency with the evaluation row.
            if (ff::dotLanes(eq_row.data(), column.data(), k) !=
                eval_code[col])
                return false;

            // Consistency with the proximity row.
            if (ff::dotLanes(gamma_pow.data(), column.data(), k) !=
                prox_code[col])
                return false;
        }

        // The evaluation itself: <eval_row, eq(r_col)>.
        std::vector<F> r_col(point.begin() + row_vars_, point.end());
        auto eq_col = eqTable(r_col);
        return ff::dotLanes(proof.eval_row.data(), eq_col.data(), m) ==
               value;
    }

    /**
     * log2 of the row length m for 2^n_vars entries: half the
     * variables rounded up, and at least 5. The other
     * n_vars - colVarsFor(n_vars) variables select the row.
     */
    static unsigned
    colVarsFor(unsigned n_vars)
    {
        if (n_vars < 6)
            fatal("TensorPcs: need >= 6 variables, got %u", n_vars);
        unsigned col = (n_vars + 1) / 2;
        return col < 5 ? 5 : col;
    }

  private:
    unsigned n_vars_;
    unsigned col_vars_;
    unsigned row_vars_;
    size_t column_openings_;
    SpielmanCode<F> code_;
};

} // namespace bzk

#endif // BZK_CORE_TENSORPCS_H_
