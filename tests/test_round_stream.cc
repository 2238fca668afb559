/**
 * @file
 * Tests for the two round-stream builders. The condensed stream (Fig. 7
 * load order) must equal the one a (row, column) sort of every
 * selected element produces, port queues and visited-row count
 * included; the stream of plain outer product must equal the one read
 * off A's column-major order. Either way an entry's nz must name its
 * element in the streamed operand, so that the value and the DRAM
 * address derived from it are the element's.
 */

#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/round_stream.hh"
#include "matrix/generators.hh"

namespace sparch
{
namespace
{

auto
key(const MultTask &t)
{
    return std::tie(t.aRow, t.bRow, t.nz);
}

/** The reference build: gather (row, port) pairs, sort, expand. */
Index
sortedStream(const CsrMatrix &a, const std::vector<Index> &columns,
             std::vector<MultTask> &tasks, PortQueues &queues)
{
    std::vector<std::pair<Index, unsigned>> row_port;
    for (unsigned p = 0; p < columns.size(); ++p) {
        for (Index row = 0; row < a.rows(); ++row) {
            if (a.rowNnz(row) > columns[p])
                row_port.emplace_back(row, p);
        }
    }
    // Ports ascend with their column, so (row, port) order is
    // (row, column) order.
    std::sort(row_port.begin(), row_port.end());
    tasks.clear();
    queues.assign(columns.size(), {});
    Index visited = 0;
    Index last = ~Index{0};
    for (const auto &[row, p] : row_port) {
        const Index j = columns[p];
        queues[p].push_back(static_cast<std::uint32_t>(tasks.size()));
        tasks.push_back({row, a.rowCols(row)[j], a.rowPtr()[row] + j});
        if (row != last) {
            ++visited;
            last = row;
        }
    }
    return visited;
}

void
expectSameStream(const CondensedMatrix &condensed,
                 const std::vector<Index> &columns)
{
    const CsrMatrix &a = condensed.base();
    std::vector<MultTask> want, got;
    PortQueues want_queues, got_queues;
    const Index want_rows = sortedStream(a, columns, want, want_queues);
    // Stale contents from an earlier round must not leak through.
    got.resize(3);
    got_queues.assign(columns.size() + 2, {7, 8});
    const Index got_rows =
        buildCondensedStream(condensed, columns, got, got_queues);
    EXPECT_EQ(got_rows, want_rows);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(key(got[i]), key(want[i])) << "stream entry " << i;
    EXPECT_EQ(got_queues, want_queues);
    // The i-th element of a CSR row is its element in condensed column
    // i, so nz is a CSR position of A, which also sets its address in
    // A's layout: the value read through it is the element's.
    for (unsigned p = 0; p < columns.size(); ++p) {
        for (const std::uint32_t pos : got_queues[p]) {
            const MultTask &t = got[pos];
            ASSERT_GT(a.rowNnz(t.aRow), columns[p]);
            EXPECT_EQ(a.values()[t.nz], a.rowVals(t.aRow)[columns[p]]);
        }
    }
}

TEST(RoundStream, MatchesTheSortedStreamOnRandomColumnSubsets)
{
    Rng rng(23);
    for (int trial = 0; trial < 40; ++trial) {
        // Power-law rows: a few long rows reach columns most rows miss.
        const CsrMatrix a =
            trial % 2 == 0
                ? generatePowerLaw(300, 6.0, 2.1, 100 + trial)
                : generateUniform(120, 200, 1500, 200 + trial);
        const CondensedMatrix condensed(a);
        const Index n = condensed.numColumns();
        ASSERT_GT(n, 2u);
        std::vector<Index> columns;
        for (Index j = 0; j < n; ++j) {
            if (rng.nextBounded(3) == 0)
                columns.push_back(j);
        }
        if (columns.empty())
            columns.push_back(static_cast<Index>(rng.nextBounded(n)));
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectSameStream(condensed, columns);
    }
}

TEST(RoundStream, CoversSkippedLeadingAndTailColumns)
{
    const CsrMatrix a = generatePowerLaw(400, 5.0, 2.0, 7);
    const CondensedMatrix condensed(a);
    const Index n = condensed.numColumns();
    ASSERT_GT(n, 8u);
    // Column 0 skipped, non-contiguous picks, columns only the longest
    // rows reach, a single column, and every column.
    expectSameStream(condensed, {1, 2});
    expectSameStream(condensed, {0, 3, 5});
    expectSameStream(condensed, {2, n - 2, n - 1});
    expectSameStream(condensed, {n - 1});
    std::vector<Index> all(n);
    for (Index j = 0; j < n; ++j)
        all[j] = j;
    expectSameStream(condensed, all);
    expectSameStream(condensed, {});
}

// Condensing off: port p streams original column columns[p] of A,
// rows ascending. The reference reads A's nonzeros in column-major
// order: the CSC position of an element is its index in that order.
// nz must be that position, which sets the element's address in the
// CSC layout, and the value read through it must be the element's.
TEST(RoundStream, ColumnStreamMatchesTheCscOfA)
{
    Rng rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        const CsrMatrix a =
            trial % 2 == 0
                ? generatePowerLaw(200, 4.0, 2.1, 300 + trial)
                : generateUniform(90, 150, 900, 400 + trial);
        struct Element
        {
            Index col, row;
            Value value;
        };
        std::vector<Element> by_column;
        for (Index r = 0; r < a.rows(); ++r) {
            for (std::size_t i = 0; i < a.rowNnz(r); ++i)
                by_column.push_back(
                    {a.rowCols(r)[i], r, a.rowVals(r)[i]});
        }
        std::stable_sort(by_column.begin(), by_column.end(),
                         [](const Element &x, const Element &y) {
                             return x.col < y.col;
                         });

        // A random subset of the columns, empty ones included.
        std::vector<Index> columns;
        for (Index k = 0; k < a.cols(); ++k) {
            if (rng.nextBounded(4) == 0)
                columns.push_back(k);
        }
        std::vector<MultTask> want;
        PortQueues want_queues(columns.size());
        for (unsigned p = 0; p < columns.size(); ++p) {
            for (std::uint32_t pos = 0; pos < by_column.size(); ++pos) {
                if (by_column[pos].col != columns[p])
                    continue;
                want_queues[p].push_back(
                    static_cast<std::uint32_t>(want.size()));
                want.push_back({by_column[pos].row, columns[p], pos});
            }
        }

        const CsrMatrix a_csc = a.transpose();
        std::vector<MultTask> got(5);
        PortQueues got_queues(columns.size() + 1, {9});
        buildColumnStream(a_csc, columns, got, got_queues);
        SCOPED_TRACE("trial " + std::to_string(trial));
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(key(got[i]), key(want[i])) << "stream entry " << i;
            EXPECT_EQ(a_csc.values()[got[i].nz],
                      by_column[want[i].nz].value);
        }
        EXPECT_EQ(got_queues, want_queues);
    }
}

} // namespace
} // namespace sparch
