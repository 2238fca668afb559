/**
 * @file
 * Matrix condensing (paper Section II-B, Fig. 7).
 *
 * All nonzeros of the left matrix are pushed left: condensed column j
 * holds the j-th nonzero of every row that has more than j nonzeros,
 * keeping each element's *original* column index for the multiply
 * phase. "CSR format and our condensed format are two different views
 * of the same data": the i-th element of a CSR row is in condensed
 * column i, so element (row, j) is the CSR nonzero rowPtr[row] + j.
 * The number of condensed columns equals the longest row, which is
 * what reduces partial matrices by three orders of magnitude.
 *
 * The view keeps nothing per nonzero: only the length of each
 * condensed column, from a histogram of the row lengths. A round's
 * element stream is built by walking the CSR rows
 * (buildCondensedStream()).
 */

#ifndef SPARCH_CORE_CONDENSED_MATRIX_HH
#define SPARCH_CORE_CONDENSED_MATRIX_HH

#include <cstdint>
#include <vector>

#include "matrix/csr.hh"

namespace sparch
{

/** Condensed-column view over a CSR matrix, which it references. */
class CondensedMatrix
{
  public:
    /** Build the view in O(rows); `csr` must outlive this object. */
    explicit CondensedMatrix(const CsrMatrix &csr);

    /** Number of condensed columns = longest row of the base matrix. */
    Index numColumns() const
    {
        return static_cast<Index>(column_length_.size());
    }

    /** Number of elements in condensed column j: rows longer than j. */
    Index columnLength(Index j) const;

    /**
     * Estimated nonzeros of (condensed column j) x B for every j, the
     * Huffman leaf weights, from one pass over the nonzeros: the sum of
     * right-matrix row lengths over the column's elements (exact
     * before inter-column duplicate elimination).
     */
    std::vector<std::uint64_t> productWeights(const CsrMatrix &b) const;

    const CsrMatrix &base() const { return *csr_; }

  private:
    const CsrMatrix *csr_;
    /** column_length_[j] = rows with more than j nonzeros. */
    std::vector<Index> column_length_;
};

} // namespace sparch

#endif // SPARCH_CORE_CONDENSED_MATRIX_HH
