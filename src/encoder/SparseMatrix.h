#ifndef BZK_ENCODER_SPARSEMATRIX_H_
#define BZK_ENCODER_SPARSEMATRIX_H_

/**
 * @file
 * Row-major (CSR) sparse matrix over a finite field, representing the
 * bipartite expander graphs of the Spielman encoder (Figure 3). Right
 * vertices are rows, left vertices are columns, and an edge carries a
 * non-zero field coefficient.
 *
 * Coefficients are stored as 32-bit integers and never lifted into the
 * field: each row sum multiplies the field operands by the raw integers
 * in a lazily reduced F::SmallDot accumulator and reduces once per row,
 * which equals the sum over fromUint-lifted coefficients bit for bit.
 * The 32-bit storage keeps a 2^22-size encoder's matrices in hundreds
 * of megabytes instead of gigabytes.
 *
 * A product runs on one vector, of Montgomery-form elements or of
 * canonical residues (mulVec), or on an 8-row batch of canonical
 * residues in IFMA lanes (mulBatch). The code is linear with integer
 * coefficients, so every form computes the same residues.
 */

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "exec/ExecContext.h"
#include "ff/FieldBackend.h"
#include "util/Log.h"
#include "util/Rng.h"

namespace bzk {

/** CSR sparse matrix with per-row degree taken from a degree sequence. */
template <typename F>
class SparseMatrix
{
  public:
    SparseMatrix() = default;

    /**
     * Sample a matrix with the given @p degrees (one per row) over
     * @p cols columns; column indices and coefficients come from @p rng.
     */
    SparseMatrix(std::span<const uint8_t> degrees, size_t cols, Rng &rng)
        : cols_(cols)
    {
        offsets_.reserve(degrees.size() + 1);
        offsets_.push_back(0);
        size_t nnz = 0;
        for (uint8_t d : degrees)
            nnz += d;
        entries_.reserve(nnz);
        for (uint8_t d : degrees) {
            for (uint8_t e = 0; e < d; ++e) {
                ff::RowTerm entry;
                entry.col = static_cast<uint32_t>(rng.nextBounded(cols));
                entry.coeff = randomCoeff(rng);
                entries_.push_back(entry);
            }
            offsets_.push_back(entries_.size());
        }
    }

    /**
     * A dense @p rows x @p cols matrix: row r holds every column in
     * order, with coefficients drawn from @p rng row by row.
     */
    static SparseMatrix
    dense(size_t rows, size_t cols, Rng &rng)
    {
        SparseMatrix m;
        m.cols_ = cols;
        m.offsets_.reserve(rows + 1);
        m.offsets_.push_back(0);
        m.entries_.reserve(rows * cols);
        for (size_t r = 0; r < rows; ++r) {
            for (size_t c = 0; c < cols; ++c)
                m.entries_.push_back(
                    {static_cast<uint32_t>(c), randomCoeff(rng)});
            m.offsets_.push_back(m.entries_.size());
        }
        return m;
    }

    /** Number of rows. */
    size_t rows() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

    /** Number of columns. */
    size_t cols() const { return cols_; }

    /** Non-zero count. */
    size_t nnz() const { return entries_.size(); }

    /**
     * out[r] = sum_e coeff_e * x[col_e] over row r's entries. With a
     * non-null @p exec, rows are partitioned into groups of roughly
     * equal non-zero count (the host analogue of the GPU's
     * bucket-sorted warps — workers finish together instead of
     * straggling on a run of long rows) and the groups run across the
     * pool. Rows write disjoint outputs, so the result is bit-identical
     * to the serial pass.
     */
    void
    mulVec(std::span<const F> x, std::span<F> out,
           const exec::ExecContext *exec = nullptr) const
    {
        mulRows(x, out, exec);
    }

    /**
     * mulVec over canonical residues: out[r] is the canonical residue
     * of row r's integer sum.
     */
    void
    mulVec(std::span<const U256> x, std::span<U256> out,
           const exec::ExecContext *exec = nullptr) const
    {
        mulRows(x, out, exec);
    }

    /**
     * mulVec on a row batch (ff::mulRowBatch): @p in holds cols()
     * positions, @p out receives rows(). Under kIfma only.
     */
    void
    mulBatch(const ff::RowLanes *in, ff::RowLanes *out) const
    {
        ff::mulRowBatch<F>(offsets_.data(), entries_.data(), rows(), in,
                           out);
    }

  private:
    /** A coefficient in [1, 2^32): never zero, so every edge is real. */
    static uint32_t
    randomCoeff(Rng &rng)
    {
        return static_cast<uint32_t>(rng.nextBounded(0xffffffffULL)) + 1;
    }

    template <typename T>
    void
    mulRows(std::span<const T> x, std::span<T> out,
            const exec::ExecContext *exec) const
    {
        if (x.size() != cols_ || out.size() != rows())
            panic("SparseMatrix::mulVec: shape mismatch "
                  "(%zu x %zu vs in %zu out %zu)",
                  rows(), cols_, x.size(), out.size());
        auto run_rows = [&](size_t begin, size_t end) {
            for (size_t r = begin; r < end; ++r) {
                typename F::SmallDot acc;
                for (size_t e = offsets_[r]; e < offsets_[r + 1]; ++e)
                    acc.add(x[entries_[e].col], entries_[e].coeff);
                if constexpr (std::is_same_v<T, U256>)
                    out[r] = acc.residue();
                else
                    out[r] = acc.result();
            }
        };
        if (!exec || exec->threads() <= 1 ||
            nnz() < exec::kSerialCutoff) {
            run_rows(0, rows());
            return;
        }
        // Group boundaries balanced on nnz via the CSR offsets, then
        // one pool item per group.
        size_t groups = std::min(rows(), exec->threads() * 4);
        std::vector<size_t> bounds(groups + 1, rows());
        bounds[0] = 0;
        for (size_t g = 1; g < groups; ++g) {
            size_t target = g * nnz() / groups;
            bounds[g] = static_cast<size_t>(
                std::lower_bound(offsets_.begin(), offsets_.end(),
                                 target) -
                offsets_.begin());
        }
        exec->parallelFor(groups, /*serial_cutoff=*/2,
                          [&](size_t g_begin, size_t g_end) {
                              for (size_t g = g_begin; g < g_end; ++g)
                                  run_rows(bounds[g], bounds[g + 1]);
                          });
    }

    std::vector<size_t> offsets_;
    std::vector<ff::RowTerm> entries_;
    size_t cols_ = 0;
};

} // namespace bzk

#endif // BZK_ENCODER_SPARSEMATRIX_H_
