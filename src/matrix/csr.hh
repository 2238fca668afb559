/**
 * @file
 * Compressed Sparse Row (CSR) matrix.
 *
 * CSR is the storage format of both SpArch operands (Section II-B: "We
 * store the left matrix in CSR format ... The second input matrix E is
 * stored in CSR format") and the format of the final result emitted by
 * the Partial Matrix Writer. It is also the working format of all the
 * reference SpGEMM algorithms.
 */

#ifndef SPARCH_MATRIX_CSR_HH
#define SPARCH_MATRIX_CSR_HH

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hh"
#include "matrix/coo.hh"

namespace sparch
{

/**
 * Immutable-shape CSR sparse matrix. Column indices within each row are
 * kept sorted; construction enforces this invariant.
 */
class CsrMatrix
{
  public:
    CsrMatrix() = default;

    /** Empty matrix of the given shape. */
    CsrMatrix(Index rows, Index cols);

    /** Build from raw CSR arrays; validates shape and ordering. */
    CsrMatrix(Index rows, Index cols, std::vector<Index> row_ptr,
              std::vector<Index> col_idx, std::vector<Value> values);

    /**
     * Build from triplets in one pass (canonicalRows): entries ordered
     * by (row, col), duplicates summed left to right in insertion
     * order, and exact-zero sums dropped if `drop_zeros`. Pass the
     * COO by std::move to spare a copy of its triplets.
     */
    static CsrMatrix fromCoo(CooMatrix coo, bool drop_zeros);

    /**
     * Convert from COO. Canonical input (CooMatrix::isCanonical) is
     * taken as is, explicit zeros included; any other input is
     * canonicalized with exact-zero sums dropped.
     */
    static CsrMatrix fromCoo(CooMatrix coo);

    /** Convert to COO triplets (already canonical). */
    CooMatrix toCoo() const;

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }
    std::size_t nnz() const { return col_idx_.size(); }

    const std::vector<Index> &rowPtr() const { return row_ptr_; }
    const std::vector<Index> &colIdx() const { return col_idx_; }
    const std::vector<Value> &values() const { return values_; }

    /** Number of stored elements in one row. */
    Index
    rowNnz(Index row) const
    {
        return row_ptr_[row + 1] - row_ptr_[row];
    }

    /** Column indices of one row as a span. */
    std::span<const Index>
    rowCols(Index row) const
    {
        return {col_idx_.data() + row_ptr_[row], rowNnz(row)};
    }

    /** Values of one row as a span. */
    std::span<const Value>
    rowVals(Index row) const
    {
        return {values_.data() + row_ptr_[row], rowNnz(row)};
    }

    /** Length of the longest row = condensed-column count (Fig. 7). */
    Index maxRowNnz() const;

    /** Transpose (also serves as the CSC view of this matrix). */
    CsrMatrix transpose() const;

    /**
     * Copy of the row range [begin, end) as a standalone matrix with
     * the same column count. Row i of the slice is row begin + i of
     * this matrix. This is the shard cut of the outer-product
     * formulation: each row block of the left operand yields an
     * independent row block of the product.
     */
    CsrMatrix rowSlice(Index begin, Index end) const;

    /**
     * Stack matrices vertically (top to bottom). All parts must share
     * a column count; an empty list yields an empty 0x0 matrix. The
     * inverse of cutting with rowSlice: vstack of consecutive slices
     * reproduces the original matrix exactly.
     */
    static CsrMatrix vstack(std::span<const CsrMatrix> parts);

    /**
     * Pointer variant for callers whose parts live in larger records
     * (e.g. per-shard SpArchResults) and should not be copied just to
     * form a contiguous range.
     */
    static CsrMatrix vstack(std::span<const CsrMatrix *const> parts);

    /**
     * Number of scalar multiplications in C = this * b, i.e. the paper's
     * M (Section III-C). Sum over nonzeros a_ik of nnz(row k of b).
     */
    std::uint64_t multiplyFlops(const CsrMatrix &b) const;

    /** DRAM footprint of this matrix in CSR (paper byte accounting). */
    Bytes
    storageBytes() const
    {
        return static_cast<Bytes>(nnz()) * bytesPerElement +
               static_cast<Bytes>(rows_ + 1) * bytesPerRowPtr;
    }

    /** Exact structural and value equality. */
    bool operator==(const CsrMatrix &other) const = default;

    /**
     * Approximate equality: same structure, values within relative
     * tolerance. Used to compare simulator output against the reference
     * model, where floating-point summation order may differ.
     */
    bool almostEqual(const CsrMatrix &other, double rel_tol = 1e-9) const;

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    std::vector<Index> row_ptr_{0};
    std::vector<Index> col_idx_;
    std::vector<Value> values_;
};

} // namespace sparch

#endif // SPARCH_MATRIX_CSR_HH
