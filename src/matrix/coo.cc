#include "matrix/coo.hh"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/logging.hh"

namespace sparch
{

namespace
{

/** Rows up to this length are ordered by insertion sort. */
constexpr Index kInsertionSortMax = 32;

/**
 * Order one row's entries by (column, arrival), where arrival is the
 * position in the row, so duplicates keep insertion order. `keys` and
 * `vals` are scratch for rows too long for insertion sort.
 */
void
sortRow(Index *col, Value *val, Index len,
        std::vector<std::uint64_t> &keys, std::vector<Value> &vals)
{
    if (len <= kInsertionSortMax) {
        for (Index i = 1; i < len; ++i) {
            const Index c = col[i];
            const Value v = val[i];
            Index j = i;
            for (; j > 0 && col[j - 1] > c; --j) {
                col[j] = col[j - 1];
                val[j] = val[j - 1];
            }
            col[j] = c;
            val[j] = v;
        }
        return;
    }
    if (std::is_sorted(col, col + len))
        return;
    // Unique keys (column, arrival): an unstable sort is stable here.
    keys.resize(len);
    for (Index i = 0; i < len; ++i)
        keys[i] = (std::uint64_t{col[i]} << 32) | i;
    std::sort(keys.begin(), keys.end());
    vals.assign(val, val + len);
    for (Index i = 0; i < len; ++i) {
        col[i] = static_cast<Index>(keys[i] >> 32);
        val[i] = vals[static_cast<Index>(keys[i])];
    }
}

} // namespace

CanonicalRows
canonicalRows(Index rows, Index cols, std::vector<Triplet> triplets,
              bool drop_zeros)
{
    SPARCH_ASSERT(triplets.size() <= std::numeric_limits<Index>::max(),
                  triplets.size(), " triplets exceed 32-bit indices");
    CanonicalRows out;
    std::vector<Index> &ptr = out.rowPtr;
    ptr.assign(std::size_t{rows} + 1, 0);
    for (const Triplet &t : triplets) {
        SPARCH_ASSERT(t.row < rows && t.col < cols, "triplet (", t.row,
                      ",", t.col, ") outside ", rows, "x", cols);
        ++ptr[t.row + 1];
    }
    for (Index r = 0; r < rows; ++r)
        ptr[r + 1] += ptr[r];

    // Stable scatter by row; ptr[r] advances from the start of row r
    // to its end.
    const auto n = static_cast<Index>(triplets.size());
    std::vector<Index> &col = out.colIdx;
    std::vector<Value> &val = out.values;
    col.resize(n);
    val.resize(n);
    for (const Triplet &t : triplets) {
        const Index pos = ptr[t.row]++;
        col[pos] = t.col;
        val[pos] = t.value;
    }
    std::vector<Triplet>().swap(triplets);

    // Per row: order, sum duplicates left to right, drop zeros, and
    // compact to `w`, which never passes the row being read. ptr[r]
    // holds row r's end until the row is read, then its new start.
    std::vector<std::uint64_t> keys;
    std::vector<Value> vals;
    Index w = 0;
    Index begin = 0;
    for (Index r = 0; r < rows; ++r) {
        const Index end = ptr[r];
        ptr[r] = w;
        sortRow(col.data() + begin, val.data() + begin, end - begin, keys,
                vals);
        for (Index i = begin; i < end;) {
            const Index c = col[i];
            Value v = val[i];
            for (++i; i < end && col[i] == c; ++i)
                v += val[i];
            if (drop_zeros && v == 0.0)
                continue;
            col[w] = c;
            val[w] = v;
            ++w;
        }
        begin = end;
    }
    ptr[rows] = w;
    col.resize(w);
    val.resize(w);
    col.shrink_to_fit();
    val.shrink_to_fit();
    return out;
}

void
CooMatrix::add(Index row, Index col, Value value)
{
    SPARCH_ASSERT(row < rows_ && col < cols_,
                  "triplet (", row, ",", col, ") outside ", rows_, "x",
                  cols_);
    triplets_.push_back({row, col, value});
}

void
CooMatrix::canonicalize(bool drop_zeros)
{
    const CanonicalRows c =
        canonicalRows(rows_, cols_, std::move(triplets_), drop_zeros);
    triplets_.clear();
    triplets_.reserve(c.colIdx.size());
    for (Index r = 0; r < rows_; ++r) {
        for (Index i = c.rowPtr[r]; i < c.rowPtr[r + 1]; ++i)
            triplets_.push_back({r, c.colIdx[i], c.values[i]});
    }
}

bool
CooMatrix::isCanonical() const
{
    for (std::size_t i = 1; i < triplets_.size(); ++i) {
        const auto &p = triplets_[i - 1];
        const auto &c = triplets_[i];
        if (p.row > c.row || (p.row == c.row && p.col >= c.col))
            return false;
    }
    return true;
}

} // namespace sparch
