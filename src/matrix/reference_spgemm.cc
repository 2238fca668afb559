#include "matrix/reference_spgemm.hh"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"

namespace sparch
{

namespace
{

void
checkDims(const CsrMatrix &a, const CsrMatrix &b)
{
    if (a.cols() != b.rows())
        fatal("spgemm: dimension mismatch ", a.rows(), "x", a.cols(),
              " * ", b.rows(), "x", b.cols());
}

} // namespace

CsrMatrix
spgemmDenseAccumulator(const CsrMatrix &a, const CsrMatrix &b,
                       SpgemmCounts *counts)
{
    checkDims(a, b);
    SpgemmCounts local;

    std::vector<Index> row_ptr(a.rows() + 1, 0);
    std::vector<Index> col_idx;
    std::vector<Value> values;

    std::vector<Value> accum(b.cols(), 0.0);
    std::vector<bool> occupied(b.cols(), false);
    std::vector<Index> touched;

    for (Index i = 0; i < a.rows(); ++i) {
        touched.clear();
        auto a_cols = a.rowCols(i);
        auto a_vals = a.rowVals(i);
        for (std::size_t p = 0; p < a_cols.size(); ++p) {
            const Index k = a_cols[p];
            const Value a_val = a_vals[p];
            auto b_cols = b.rowCols(k);
            auto b_vals = b.rowVals(k);
            for (std::size_t q = 0; q < b_cols.size(); ++q) {
                const Index j = b_cols[q];
                ++local.multiplies;
                if (occupied[j]) {
                    ++local.additions;
                    accum[j] += a_val * b_vals[q];
                } else {
                    occupied[j] = true;
                    accum[j] = a_val * b_vals[q];
                    touched.push_back(j);
                }
            }
        }
        std::sort(touched.begin(), touched.end());
        for (Index j : touched) {
            col_idx.push_back(j);
            values.push_back(accum[j]);
            occupied[j] = false;
        }
        row_ptr[i + 1] = static_cast<Index>(col_idx.size());
    }

    local.outputNnz = col_idx.size();
    if (counts)
        *counts = local;
    return CsrMatrix(a.rows(), b.cols(), std::move(row_ptr),
                     std::move(col_idx), std::move(values));
}

CsrMatrix
spgemmHash(const CsrMatrix &a, const CsrMatrix &b, SpgemmCounts *counts)
{
    checkDims(a, b);
    SpgemmCounts local;

    std::vector<Index> row_ptr(a.rows() + 1, 0);
    std::vector<Index> col_idx;
    std::vector<Value> values;

    std::unordered_map<Index, Value> accum;
    std::vector<std::pair<Index, Value>> sorted_row;

    for (Index i = 0; i < a.rows(); ++i) {
        accum.clear();
        auto a_cols = a.rowCols(i);
        auto a_vals = a.rowVals(i);
        for (std::size_t p = 0; p < a_cols.size(); ++p) {
            const Index k = a_cols[p];
            const Value a_val = a_vals[p];
            auto b_cols = b.rowCols(k);
            auto b_vals = b.rowVals(k);
            for (std::size_t q = 0; q < b_cols.size(); ++q) {
                ++local.multiplies;
                auto [it, inserted] =
                    accum.try_emplace(b_cols[q], 0.0);
                if (!inserted)
                    ++local.additions;
                it->second += a_val * b_vals[q];
            }
        }
        sorted_row.assign(accum.begin(), accum.end());
        std::sort(sorted_row.begin(), sorted_row.end());
        for (const auto &[j, v] : sorted_row) {
            col_idx.push_back(j);
            values.push_back(v);
        }
        row_ptr[i + 1] = static_cast<Index>(col_idx.size());
    }

    local.outputNnz = col_idx.size();
    if (counts)
        *counts = local;
    return CsrMatrix(a.rows(), b.cols(), std::move(row_ptr),
                     std::move(col_idx), std::move(values));
}

} // namespace sparch
