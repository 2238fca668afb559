#include "matrix/csr.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"

namespace sparch
{

CsrMatrix::CsrMatrix(Index rows, Index cols)
    : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0)
{}

CsrMatrix::CsrMatrix(Index rows, Index cols, std::vector<Index> row_ptr,
                     std::vector<Index> col_idx, std::vector<Value> values)
    : rows_(rows), cols_(cols), row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)), values_(std::move(values))
{
    SPARCH_ASSERT(row_ptr_.size() == static_cast<std::size_t>(rows_) + 1,
                  "row_ptr size ", row_ptr_.size(), " for ", rows_,
                  " rows");
    SPARCH_ASSERT(col_idx_.size() == values_.size(),
                  "col_idx/values size mismatch");
    SPARCH_ASSERT(row_ptr_.front() == 0 && row_ptr_.back() == nnz(),
                  "row_ptr endpoints invalid");
    for (Index r = 0; r < rows_; ++r) {
        SPARCH_ASSERT(row_ptr_[r] <= row_ptr_[r + 1],
                      "row_ptr not monotone at row ", r);
        for (Index i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
            SPARCH_ASSERT(col_idx_[i] < cols_, "column ", col_idx_[i],
                          " out of range in row ", r);
            if (i > row_ptr_[r]) {
                SPARCH_ASSERT(col_idx_[i - 1] < col_idx_[i],
                              "row ", r, " not strictly sorted");
            }
        }
    }
}

CsrMatrix
CsrMatrix::fromCoo(CooMatrix coo, bool drop_zeros)
{
    CsrMatrix m;
    m.rows_ = coo.rows();
    m.cols_ = coo.cols();
    CanonicalRows c = canonicalRows(m.rows_, m.cols_,
                                    std::move(coo.triplets()), drop_zeros);
    m.row_ptr_ = std::move(c.rowPtr);
    m.col_idx_ = std::move(c.colIdx);
    m.values_ = std::move(c.values);
    return m;
}

CsrMatrix
CsrMatrix::fromCoo(CooMatrix coo)
{
    // On canonical input the pass only copies, so keeping its zeros
    // takes the input as is.
    const bool drop_zeros = !coo.isCanonical();
    return fromCoo(std::move(coo), drop_zeros);
}

CooMatrix
CsrMatrix::toCoo() const
{
    CooMatrix coo(rows_, cols_);
    coo.triplets().reserve(nnz());
    for (Index r = 0; r < rows_; ++r) {
        for (Index i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
            coo.triplets().push_back({r, col_idx_[i], values_[i]});
    }
    return coo;
}

Index
CsrMatrix::maxRowNnz() const
{
    Index max_len = 0;
    for (Index r = 0; r < rows_; ++r)
        max_len = std::max(max_len, rowNnz(r));
    return max_len;
}

CsrMatrix
CsrMatrix::transpose() const
{
    CsrMatrix t;
    t.rows_ = cols_;
    t.cols_ = rows_;
    t.row_ptr_.assign(cols_ + 1, 0);
    t.col_idx_.resize(nnz());
    t.values_.resize(nnz());

    for (Index c : col_idx_)
        ++t.row_ptr_[c + 1];
    for (Index c = 0; c < cols_; ++c)
        t.row_ptr_[c + 1] += t.row_ptr_[c];

    std::vector<Index> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
    for (Index r = 0; r < rows_; ++r) {
        for (Index i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
            const Index pos = cursor[col_idx_[i]]++;
            t.col_idx_[pos] = r;
            t.values_[pos] = values_[i];
        }
    }
    return t;
}

CsrMatrix
CsrMatrix::rowSlice(Index begin, Index end) const
{
    SPARCH_ASSERT(begin <= end && end <= rows_, "row slice [", begin,
                  ", ", end, ") out of range for ", rows_, " rows");
    CsrMatrix s;
    s.rows_ = end - begin;
    s.cols_ = cols_;
    s.row_ptr_.resize(s.rows_ + 1);
    const Index base = row_ptr_[begin];
    for (Index r = 0; r <= s.rows_; ++r)
        s.row_ptr_[r] = row_ptr_[begin + r] - base;
    s.col_idx_.assign(col_idx_.begin() + base,
                      col_idx_.begin() + row_ptr_[end]);
    s.values_.assign(values_.begin() + base,
                     values_.begin() + row_ptr_[end]);
    return s;
}

CsrMatrix
CsrMatrix::vstack(std::span<const CsrMatrix> parts)
{
    std::vector<const CsrMatrix *> ptrs;
    ptrs.reserve(parts.size());
    for (const CsrMatrix &p : parts)
        ptrs.push_back(&p);
    return vstack(std::span<const CsrMatrix *const>(ptrs));
}

CsrMatrix
CsrMatrix::vstack(std::span<const CsrMatrix *const> parts)
{
    CsrMatrix m;
    if (parts.empty())
        return m;
    m.cols_ = parts.front()->cols_;
    std::size_t total_nnz = 0;
    for (const CsrMatrix *p : parts) {
        SPARCH_ASSERT(p->cols_ == m.cols_, "vstack column mismatch: ",
                      p->cols_, " vs ", m.cols_);
        m.rows_ += p->rows_;
        total_nnz += p->nnz();
    }
    m.row_ptr_.reserve(m.rows_ + 1);
    m.col_idx_.reserve(total_nnz);
    m.values_.reserve(total_nnz);
    for (const CsrMatrix *p : parts) {
        const Index base = m.row_ptr_.back();
        for (Index r = 0; r < p->rows_; ++r)
            m.row_ptr_.push_back(base + p->row_ptr_[r + 1]);
        m.col_idx_.insert(m.col_idx_.end(), p->col_idx_.begin(),
                          p->col_idx_.end());
        m.values_.insert(m.values_.end(), p->values_.begin(),
                         p->values_.end());
    }
    return m;
}

std::uint64_t
CsrMatrix::multiplyFlops(const CsrMatrix &b) const
{
    SPARCH_ASSERT(cols_ == b.rows(), "dimension mismatch ", cols_, " vs ",
                  b.rows());
    std::uint64_t flops = 0;
    for (Index k : col_idx_)
        flops += b.rowNnz(k);
    return flops;
}

bool
CsrMatrix::almostEqual(const CsrMatrix &other, double rel_tol) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_ ||
        row_ptr_ != other.row_ptr_ || col_idx_ != other.col_idx_) {
        return false;
    }
    for (std::size_t i = 0; i < values_.size(); ++i) {
        const double diff = std::abs(values_[i] - other.values_[i]);
        const double scale = std::max(
            {std::abs(values_[i]), std::abs(other.values_[i]), 1.0});
        if (diff > rel_tol * scale)
            return false;
    }
    return true;
}

} // namespace sparch
