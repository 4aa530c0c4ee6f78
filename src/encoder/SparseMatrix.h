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
 */

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "exec/ExecContext.h"
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
                Entry entry;
                entry.col = static_cast<uint32_t>(rng.nextBounded(cols));
                // Coefficient in [1, 2^32): never zero, so every edge is
                // a real edge.
                entry.coeff =
                    static_cast<uint32_t>(rng.nextBounded(0xffffffffULL)) + 1;
                entries_.push_back(entry);
            }
            offsets_.push_back(entries_.size());
        }
    }

    /** Number of rows. */
    size_t rows() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

    /** Number of columns. */
    size_t cols() const { return cols_; }

    /** Non-zero count. */
    size_t nnz() const { return entries_.size(); }

    /** out[r] = sum_e coeff_e * x[col_e] over row r's entries. */
    void
    mulVec(std::span<const F> x, std::span<F> out) const
    {
        mulVec(x, out, nullptr);
    }

    /**
     * mulVec with optional host parallelism: rows are partitioned into
     * groups of roughly equal non-zero count (the host analogue of the
     * GPU's bucket-sorted warps — workers finish together instead of
     * straggling on a run of long rows) and the groups run across the
     * pool. Rows write disjoint outputs, so the result is bit-identical
     * to the serial pass.
     */
    void
    mulVec(std::span<const F> x, std::span<F> out,
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
                out[r] = acc.result();
            }
        };
        if (!exec || exec->threads() <= 1 ||
            nnz() < exec->serialCutoff()) {
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

  private:
    struct Entry
    {
        uint32_t col = 0;
        uint32_t coeff = 0;
    };

    std::vector<size_t> offsets_;
    std::vector<Entry> entries_;
    size_t cols_ = 0;
};

} // namespace bzk

#endif // BZK_ENCODER_SPARSEMATRIX_H_
