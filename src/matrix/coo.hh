/**
 * @file
 * Coordinate-format (COO) sparse matrix.
 *
 * COO is the format partial product matrices travel in inside SpArch
 * (Section II-A: "[row index, column index, value] ... sorted by row
 * index then column index"), and the natural target for matrix
 * generators and Matrix Market input.
 */

#ifndef SPARCH_MATRIX_COO_HH
#define SPARCH_MATRIX_COO_HH

#include <vector>

#include "common/types.hh"

namespace sparch
{

/** One COO triplet. */
struct Triplet
{
    Index row = 0;
    Index col = 0;
    Value value = 0.0;

    friend bool
    operator==(const Triplet &a, const Triplet &b)
    {
        return a.row == b.row && a.col == b.col && a.value == b.value;
    }
};

/**
 * A matrix's canonical entries as CSR arrays: rows in order, columns
 * strictly increasing within each row.
 */
struct CanonicalRows
{
    std::vector<Index> rowPtr;
    std::vector<Index> colIdx;
    std::vector<Value> values;
};

/**
 * Canonicalize a triplet list straight into CSR arrays, consuming it.
 * The order is by (row, col); duplicates of one coordinate are summed
 * left to right in insertion order.
 *
 * One counting pass in O(rows + nnz) memory: a stable scatter by row
 * (which yields the row pointer), then per row an order on (column,
 * arrival) and the duplicate sums, compacted in place. No array is
 * sized by the column count.
 *
 * @param drop_zeros If true, remove entries whose summed value is
 *        exactly zero (either sign).
 */
CanonicalRows canonicalRows(Index rows, Index cols,
                            std::vector<Triplet> triplets,
                            bool drop_zeros);

/**
 * Sparse matrix in coordinate format. Triplets may be unsorted and may
 * contain duplicates until canonicalize() is called.
 */
class CooMatrix
{
  public:
    CooMatrix() = default;
    CooMatrix(Index rows, Index cols) : rows_(rows), cols_(cols) {}

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }
    std::size_t nnz() const { return triplets_.size(); }

    const std::vector<Triplet> &triplets() const { return triplets_; }
    std::vector<Triplet> &triplets() { return triplets_; }

    /** Append one entry; bounds are checked. */
    void add(Index row, Index col, Value value);

    /**
     * Sort by (row, col) and sum duplicate coordinates left to right
     * in insertion order (canonicalRows). After this the matrix is in
     * the canonical sorted-unique form every consumer assumes.
     *
     * @param drop_zeros If true, remove entries whose merged value is
     *        exactly zero. Generators want this; SpGEMM merge phases
     *        keep explicit zeros (as the hardware adders do).
     */
    void canonicalize(bool drop_zeros = true);

    /** True if sorted by (row, col) with no duplicate coordinates. */
    bool isCanonical() const;

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    std::vector<Triplet> triplets_;
};

} // namespace sparch

#endif // SPARCH_MATRIX_COO_HH
