/**
 * @file
 * Tests for the condensed round stream (Fig. 7 load order): the stream
 * buildCondensedStream() writes must equal the one a (row, column)
 * sort of every selected element produces, port queues and visited-row
 * count included.
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

constexpr Bytes kBase = 4096;

/** The reference build: gather (row, port) pairs, sort, expand. */
Index
sortedStream(const CondensedMatrix &condensed,
             const std::vector<Index> &columns,
             std::vector<MultTask> &tasks,
             std::vector<std::vector<std::uint64_t>> &queues)
{
    const CsrMatrix &a = condensed.base();
    std::vector<std::pair<Index, unsigned>> row_port;
    for (unsigned p = 0; p < columns.size(); ++p) {
        for (const Index row : condensed.columnRows(columns[p]))
            row_port.emplace_back(row, p);
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
        queues[p].push_back(tasks.size());
        const Bytes addr =
            kBase +
            (static_cast<Bytes>(a.rowPtr()[row]) + j) * bytesPerElement;
        tasks.push_back(
            {row, a.rowCols(row)[j], a.rowVals(row)[j], p, addr});
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
    std::vector<MultTask> want, got;
    std::vector<std::vector<std::uint64_t>> want_queues, got_queues;
    const Index want_rows =
        sortedStream(condensed, columns, want, want_queues);
    // Stale contents from an earlier round must not leak through.
    got.resize(3);
    got_queues.assign(columns.size() + 2, {7, 8});
    const Index got_rows =
        buildCondensedStream(condensed, columns, kBase, got, got_queues);
    EXPECT_EQ(got_rows, want_rows);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const auto key = [](const MultTask &t) {
            return std::tie(t.aRow, t.bRow, t.aValue, t.port, t.addr);
        };
        ASSERT_EQ(key(got[i]), key(want[i])) << "stream entry " << i;
    }
    EXPECT_EQ(got_queues, want_queues);
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

} // namespace
} // namespace sparch
