/**
 * @file
 * Tests for matrix condensing (Section II-B): the condensed-column
 * view must be exactly "another view of the same data" as CSR. The
 * view keeps no per-element index, so its column lengths and leaf
 * weights are checked against what the CSR rows imply, and the
 * elements against the round stream built from it.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/condensed_matrix.hh"
#include "core/round_stream.hh"
#include "matrix/generators.hh"

namespace sparch
{
namespace
{

TEST(CondensedMatrix, ColumnCountEqualsLongestRow)
{
    const CsrMatrix m = generateUniform(50, 50, 300, 1);
    const CondensedMatrix c(m);
    EXPECT_EQ(c.numColumns(), m.maxRowNnz());
}

TEST(CondensedMatrix, EmptyMatrixHasNoColumns)
{
    const CsrMatrix m(10, 10);
    const CondensedMatrix c(m);
    EXPECT_EQ(c.numColumns(), 0u);
}

TEST(CondensedMatrix, ColumnLengthsAreMonotoneNonIncreasing)
{
    const CsrMatrix m = generatePowerLaw(300, 5.0, 2.0, 2);
    const CondensedMatrix c(m);
    for (Index j = 1; j < c.numColumns(); ++j)
        EXPECT_LE(c.columnLength(j), c.columnLength(j - 1));
    // Column j holds exactly the rows with more than j nonzeros.
    for (Index j = 0; j < c.numColumns(); ++j) {
        Index rows = 0;
        for (Index r = 0; r < m.rows(); ++r)
            rows += m.rowNnz(r) > j;
        EXPECT_EQ(c.columnLength(j), rows) << "column " << j;
    }
}

TEST(CondensedMatrix, TotalElementsEqualNnz)
{
    const CsrMatrix m = generateUniform(64, 64, 512, 3);
    const CondensedMatrix c(m);
    std::uint64_t total = 0;
    for (Index j = 0; j < c.numColumns(); ++j)
        total += c.columnLength(j);
    EXPECT_EQ(total, m.nnz());
}

TEST(CondensedMatrix, ElementMatchesCsrView)
{
    // The i-th element of a CSR row sits in condensed column i, with
    // its original column index preserved (Fig. 7). A stream of every
    // condensed column holds each element once; port j's queue is
    // column j, rows ascending.
    const CsrMatrix m = generateUniform(40, 60, 350, 4);
    const CondensedMatrix c(m);
    std::vector<Index> all(c.numColumns());
    for (Index j = 0; j < c.numColumns(); ++j)
        all[j] = j;
    std::vector<MultTask> tasks;
    PortQueues queues;
    buildCondensedStream(c, all, tasks, queues);
    ASSERT_EQ(tasks.size(), m.nnz());
    for (Index j = 0; j < c.numColumns(); ++j) {
        ASSERT_EQ(queues[j].size(), c.columnLength(j));
        for (std::size_t k = 0; k < queues[j].size(); ++k) {
            const MultTask &e = tasks[queues[j][k]];
            EXPECT_GT(m.rowNnz(e.aRow), j);
            EXPECT_EQ(e.nz, m.rowPtr()[e.aRow] + j);
            EXPECT_EQ(e.bRow, m.rowCols(e.aRow)[j]);
            if (k > 0) {
                EXPECT_GT(e.aRow, tasks[queues[j][k - 1]].aRow);
            }
        }
    }
}

TEST(CondensedMatrix, ProductWeightSumsRightRowLengths)
{
    const CsrMatrix a = generateUniform(30, 30, 200, 5);
    const CsrMatrix b = generateUniform(30, 30, 200, 6);
    const CondensedMatrix c(a);
    const std::vector<std::uint64_t> weights = c.productWeights(b);
    ASSERT_EQ(weights.size(), c.numColumns());
    std::uint64_t total = 0;
    for (Index j = 0; j < c.numColumns(); ++j) {
        // Column j's elements are the j-th nonzeros of the rows longer
        // than j.
        std::uint64_t expect = 0;
        for (Index r = 0; r < a.rows(); ++r) {
            if (a.rowNnz(r) > j)
                expect += b.rowNnz(a.rowCols(r)[j]);
        }
        EXPECT_EQ(weights[j], expect) << "column " << j;
        total += expect;
    }
    // Summed over all condensed columns, the weights are exactly the
    // multiplication count M.
    EXPECT_EQ(total, a.multiplyFlops(b));
}

TEST(CondensedMatrix, CondensingReducesColumnCountDramatically)
{
    // The headline claim: condensed column count = longest row, far
    // below the matrix dimension for sparse matrices.
    const CsrMatrix m = generateUniform(2000, 2000, 16000, 7);
    const CondensedMatrix c(m);
    EXPECT_LT(c.numColumns(), 40u);
    EXPECT_GT(m.cols(), 50 * c.numColumns());
}

TEST(CondensedMatrix, OutOfRangeAccessPanics)
{
    const CsrMatrix m = generateUniform(10, 10, 40, 8);
    const CondensedMatrix c(m);
    // columnLength() is read once per port and round: hard-checked.
    EXPECT_THROW(c.columnLength(c.numColumns()), PanicError);
    const Index columns[] = {c.numColumns()};
    std::vector<MultTask> tasks;
    PortQueues queues;
    EXPECT_THROW(buildCondensedStream(c, columns, tasks, queues),
                 PanicError);
}

} // namespace
} // namespace sparch
