#include "core/condensed_matrix.hh"

#include "common/logging.hh"

namespace sparch
{

CondensedMatrix::CondensedMatrix(const CsrMatrix &csr)
    : csr_(&csr), column_length_(csr.maxRowNnz(), 0)
{
    // Histogram of row lengths, then suffix sums: column j holds
    // exactly the rows with more than j nonzeros, so lengths are
    // monotone non-increasing (Fig. 7).
    for (Index r = 0; r < csr.rows(); ++r) {
        if (const Index len = csr.rowNnz(r); len > 0)
            ++column_length_[len - 1];
    }
    for (std::size_t j = column_length_.size(); j-- > 1;)
        column_length_[j - 1] += column_length_[j];
}

Index
CondensedMatrix::columnLength(Index j) const
{
    SPARCH_ASSERT(j < numColumns(), "condensed column ", j,
                  " out of range");
    return column_length_[j];
}

std::vector<std::uint64_t>
CondensedMatrix::productWeights(const CsrMatrix &b) const
{
    std::vector<std::uint64_t> weights(numColumns(), 0);
    for (Index r = 0; r < csr_->rows(); ++r) {
        const auto cols = csr_->rowCols(r);
        for (std::size_t j = 0; j < cols.size(); ++j)
            weights[j] += b.rowNnz(cols[j]);
    }
    return weights;
}

} // namespace sparch
