/**
 * @file
 * Unit and property tests for the CSR sparse matrix format.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "matrix/csr.hh"
#include "matrix/generators.hh"

namespace sparch
{
namespace
{

CsrMatrix
smallMatrix()
{
    // [1 0 2]
    // [0 0 0]
    // [3 4 0]
    CooMatrix coo(3, 3);
    coo.add(0, 0, 1.0);
    coo.add(0, 2, 2.0);
    coo.add(2, 0, 3.0);
    coo.add(2, 1, 4.0);
    coo.canonicalize();
    return CsrMatrix::fromCoo(coo);
}

TEST(Csr, FromCooBuildsCorrectStructure)
{
    const CsrMatrix m = smallMatrix();
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.nnz(), 4u);
    EXPECT_EQ(m.rowNnz(0), 2u);
    EXPECT_EQ(m.rowNnz(1), 0u);
    EXPECT_EQ(m.rowNnz(2), 2u);
    EXPECT_EQ(m.rowCols(0)[1], 2u);
    EXPECT_DOUBLE_EQ(m.rowVals(2)[1], 4.0);
}

TEST(Csr, ToCooRoundTrips)
{
    const CsrMatrix m = smallMatrix();
    EXPECT_EQ(CsrMatrix::fromCoo(m.toCoo()), m);
}

TEST(Csr, MaxRowNnz)
{
    EXPECT_EQ(smallMatrix().maxRowNnz(), 2u);
    EXPECT_EQ(CsrMatrix(5, 5).maxRowNnz(), 0u);
}

TEST(Csr, TransposeIsCorrect)
{
    const CsrMatrix m = smallMatrix();
    const CsrMatrix t = m.transpose();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 3u);
    EXPECT_EQ(t.nnz(), 4u);
    // Column 0 of m = {1.0 at row 0, 3.0 at row 2}.
    ASSERT_EQ(t.rowNnz(0), 2u);
    EXPECT_EQ(t.rowCols(0)[0], 0u);
    EXPECT_EQ(t.rowCols(0)[1], 2u);
    EXPECT_DOUBLE_EQ(t.rowVals(0)[1], 3.0);
}

TEST(Csr, MultiplyFlopsCountsProducts)
{
    const CsrMatrix m = smallMatrix();
    // Row 0 of m: cols {0, 2}: len(row0)=2 + len(row2)=2 = 4
    // Row 2 of m: cols {0, 1}: len(row0)=2 + len(row1)=0 = 2
    EXPECT_EQ(m.multiplyFlops(m), 6u);
}

TEST(Csr, MultiplyFlopsDimensionMismatchPanics)
{
    const CsrMatrix m = smallMatrix();
    const CsrMatrix other(4, 4);
    EXPECT_THROW(m.multiplyFlops(other), PanicError);
}

TEST(Csr, ConstructorValidatesRowPtr)
{
    EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), PanicError);
    EXPECT_THROW(CsrMatrix(2, 2, {0, 2, 1}, {0, 1}, {1.0, 2.0}),
                 PanicError);
}

TEST(Csr, ConstructorValidatesColumnOrder)
{
    // Duplicate column within a row.
    EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {1, 1}, {1.0, 2.0}),
                 PanicError);
    // Descending columns.
    EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 0}, {1.0, 2.0}),
                 PanicError);
    // Column out of range.
    EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {2}, {1.0}), PanicError);
}

TEST(Csr, AlmostEqualToleratesRounding)
{
    const CsrMatrix m = smallMatrix();
    CooMatrix coo = m.toCoo();
    coo.triplets()[0].value += 1e-13;
    const CsrMatrix n = CsrMatrix::fromCoo(coo);
    EXPECT_TRUE(m.almostEqual(n));
    EXPECT_FALSE(m == n);
}

TEST(Csr, AlmostEqualRejectsStructureChange)
{
    const CsrMatrix m = smallMatrix();
    CooMatrix coo = m.toCoo();
    coo.triplets()[0].col = 1;
    coo.canonicalize();
    EXPECT_FALSE(m.almostEqual(CsrMatrix::fromCoo(coo)));
}

TEST(Csr, StorageBytesMatchesPaperAccounting)
{
    const CsrMatrix m = smallMatrix();
    EXPECT_EQ(m.storageBytes(),
              4 * bytesPerElement + 4 * bytesPerRowPtr);
}

TEST(Csr, RowSliceExtractsRange)
{
    const CsrMatrix m = smallMatrix();
    const CsrMatrix s = m.rowSlice(1, 3);
    EXPECT_EQ(s.rows(), 2u);
    EXPECT_EQ(s.cols(), 3u);
    EXPECT_EQ(s.nnz(), 2u);
    EXPECT_EQ(s.rowNnz(0), 0u);
    ASSERT_EQ(s.rowNnz(1), 2u);
    EXPECT_EQ(s.rowCols(1)[0], 0u);
    EXPECT_DOUBLE_EQ(s.rowVals(1)[1], 4.0);
}

TEST(Csr, RowSliceEdges)
{
    const CsrMatrix m = smallMatrix();
    EXPECT_EQ(m.rowSlice(0, 3), m);
    const CsrMatrix empty = m.rowSlice(1, 1);
    EXPECT_EQ(empty.rows(), 0u);
    EXPECT_EQ(empty.nnz(), 0u);
    EXPECT_THROW(m.rowSlice(2, 4), PanicError);
    EXPECT_THROW(m.rowSlice(2, 1), PanicError);
}

TEST(Csr, VstackIsInverseOfRowSlice)
{
    const CsrMatrix m = generateUniform(50, 40, 400, 77);
    const std::vector<CsrMatrix> parts = {
        m.rowSlice(0, 13), m.rowSlice(13, 13), m.rowSlice(13, 44),
        m.rowSlice(44, 50)};
    EXPECT_EQ(CsrMatrix::vstack(parts), m);
}

TEST(Csr, VstackEdges)
{
    const CsrMatrix stacked =
        CsrMatrix::vstack(std::span<const CsrMatrix>{});
    EXPECT_EQ(stacked.rows(), 0u);
    EXPECT_EQ(stacked.nnz(), 0u);

    const std::vector<CsrMatrix> mismatched = {CsrMatrix(2, 3),
                                               CsrMatrix(2, 4)};
    EXPECT_THROW(CsrMatrix::vstack(mismatched), PanicError);
}

/**
 * The algorithm the counting pass replaced, kept as the oracle: a
 * stable sort on (row, col), a left-to-right sum of duplicates, then
 * the zero drop.
 */
std::vector<Triplet>
referenceCanonical(std::vector<Triplet> t, bool drop_zeros)
{
    std::stable_sort(t.begin(), t.end(),
                     [](const Triplet &a, const Triplet &b) {
                         return a.row != b.row ? a.row < b.row
                                               : a.col < b.col;
                     });
    std::vector<Triplet> merged;
    for (const Triplet &e : t) {
        if (!merged.empty() && merged.back().row == e.row &&
            merged.back().col == e.col) {
            merged.back().value += e.value;
        } else {
            merged.push_back(e);
        }
    }
    if (drop_zeros) {
        std::erase_if(merged,
                      [](const Triplet &e) { return e.value == 0.0; });
    }
    return merged;
}

/** Same coordinates in the same order and the same value bits. */
void
expectSameBits(const std::vector<Triplet> &got,
               const std::vector<Triplet> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].row, want[i].row) << what << " entry " << i;
        ASSERT_EQ(got[i].col, want[i].col) << what << " entry " << i;
        ASSERT_EQ(std::memcmp(&got[i].value, &want[i].value,
                              sizeof(Value)),
                  0)
            << what << " entry " << i << ": " << got[i].value << " vs "
            << want[i].value;
    }
}

/** A CSR matrix holds exactly `want`, value bits included. */
void
expectSameBits(const CsrMatrix &m, const std::vector<Triplet> &want,
               const std::string &what)
{
    std::vector<Index> row_ptr(m.rows() + 1, 0);
    for (const Triplet &e : want)
        ++row_ptr[e.row + 1];
    for (Index r = 0; r < m.rows(); ++r)
        row_ptr[r + 1] += row_ptr[r];
    EXPECT_EQ(m.rowPtr(), row_ptr) << what;
    expectSameBits(m.toCoo().triplets(), want, what);
}

/**
 * Seeded triplets that stress the canonical order. Only even rows and
 * columns that are multiples of 3 occur, so rows and columns are left
 * empty; coordinates repeat; values come from a pool with cancelling
 * pairs (x, -x), both signed zeros, and decimals and magnitudes whose
 * sums depend on the order they are added in.
 */
std::vector<Triplet>
randomTriplets(Index rows, Index cols, std::size_t n, std::uint64_t seed)
{
    static constexpr Value pool[] = {1.5,  -1.5, 0.0,   -0.0, 0.1,  0.2,
                                     0.3,  -0.1, 1e16,  -1e16, 1.0 / 3,
                                     -2.0 / 3};
    std::mt19937_64 rng(seed);
    std::vector<Triplet> t(n);
    for (Triplet &e : t) {
        e.row = 2 * static_cast<Index>(rng() % ((rows + 1) / 2));
        e.col = 3 * static_cast<Index>(rng() % ((cols + 2) / 3));
        e.value = pool[rng() % std::size(pool)];
    }
    return t;
}

/** Checks fromCoo and canonicalize against the oracle on one input. */
void
expectMatchesOracle(Index rows, Index cols, const std::vector<Triplet> &t,
                    const std::string &what)
{
    for (const bool drop : {true, false}) {
        const std::string how =
            what + (drop ? " (drop zeros)" : " (keep zeros)");
        const std::vector<Triplet> want = referenceCanonical(t, drop);
        CooMatrix coo(rows, cols);
        coo.triplets() = t;
        expectSameBits(CsrMatrix::fromCoo(coo, drop), want, how);
        coo.canonicalize(drop);
        expectSameBits(coo.triplets(), want, how + " canonicalize");
    }
    // The one-argument fromCoo canonicalizes non-canonical input with
    // zeros dropped and takes canonical input as is.
    CooMatrix coo(rows, cols);
    coo.triplets() = t;
    expectSameBits(CsrMatrix::fromCoo(coo),
                   coo.isCanonical() ? t : referenceCanonical(t, true),
                   what + " fromCoo");
}

TEST(CanonicalRows, MatchesTheStableSortOracle)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const std::string tag = "seed " + std::to_string(seed);
        // About 30 entries a row, so rows fall on both sides of the
        // insertion-sort limit.
        std::vector<Triplet> t = randomTriplets(40, 60, 600, seed);
        expectMatchesOracle(40, 60, t, tag + " shuffled");
        // Rows already in order, columns still shuffled.
        std::stable_sort(t.begin(), t.end(),
                         [](const Triplet &a, const Triplet &b) {
                             return a.row < b.row;
                         });
        expectMatchesOracle(40, 60, t, tag + " row-sorted");
        // Rows of about 100 entries.
        expectMatchesOracle(12, 300, randomTriplets(12, 300, 600, seed),
                            tag + " long rows");
    }
}

TEST(CanonicalRows, CoversCancellationsSignedZerosAndEmptyLines)
{
    const std::vector<Triplet> t = randomTriplets(40, 60, 600, 3);
    const std::vector<Triplet> kept = referenceCanonical(t, false);
    const std::vector<Triplet> dropped = referenceCanonical(t, true);
    // The oracle input really holds what the sweep claims to cover.
    EXPECT_LT(kept.size(), t.size());      // duplicates
    EXPECT_LT(dropped.size(), kept.size()); // zero sums
    bool negative_zero = false;
    for (const Triplet &e : kept)
        negative_zero |= e.value == 0.0 && std::signbit(e.value);
    EXPECT_TRUE(negative_zero);
    CooMatrix coo(40, 60);
    coo.triplets() = t;
    const CsrMatrix m = CsrMatrix::fromCoo(std::move(coo), true);
    EXPECT_EQ(m.rowNnz(1), 0u);
    EXPECT_EQ(m.rowNnz(39), 0u);
    EXPECT_EQ(m.transpose().rowNnz(1), 0u);
}

TEST(CanonicalRows, HubRowMatchesTheOracle)
{
    // One row of 10,000 entries over 3,000 columns beside short rows.
    std::mt19937_64 rng(42);
    std::vector<Triplet> t = randomTriplets(8, 9000, 200, 5);
    for (int i = 0; i < 10000; ++i) {
        t.push_back({4, static_cast<Index>(rng() % 3000),
                     (i % 3 == 0 ? -0.25 : 0.125) * static_cast<Value>(
                                                       1 + rng() % 4)});
    }
    std::shuffle(t.begin(), t.end(), rng);
    expectMatchesOracle(8, 9000, t, "hub");
}

TEST(CanonicalRows, FromCooKeepsExplicitZerosOfCanonicalInput)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const std::vector<Triplet> canon =
            referenceCanonical(randomTriplets(40, 60, 600, seed), false);
        ASSERT_TRUE(std::any_of(canon.begin(), canon.end(),
                                [](const Triplet &e) {
                                    return e.value == 0.0;
                                }));
        CooMatrix coo(40, 60);
        coo.triplets() = canon;
        ASSERT_TRUE(coo.isCanonical());
        expectSameBits(CsrMatrix::fromCoo(coo), canon,
                       "seed " + std::to_string(seed));
    }
}

TEST(CanonicalRows, EmptyAndOutOfRangeInput)
{
    const CsrMatrix empty = CsrMatrix::fromCoo(CooMatrix(5, 7), true);
    EXPECT_EQ(empty, CsrMatrix(5, 7));
    CooMatrix bad(2, 2);
    bad.triplets().push_back({2, 0, 1.0});
    EXPECT_THROW(CsrMatrix::fromCoo(bad, true), PanicError);
}

/** Property sweep: transpose is an involution on random matrices. */
class CsrTransposeProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CsrTransposeProperty, TransposeTwiceIsIdentity)
{
    const std::uint64_t seed = GetParam();
    const CsrMatrix m = generateUniform(97, 53, 700, seed);
    EXPECT_EQ(m.transpose().transpose(), m);
}

TEST_P(CsrTransposeProperty, TransposePreservesNnz)
{
    const CsrMatrix m = generateUniform(64, 128, 900, GetParam());
    const CsrMatrix t = m.transpose();
    EXPECT_EQ(t.nnz(), m.nnz());
    EXPECT_EQ(t.rows(), m.cols());
    EXPECT_EQ(t.cols(), m.rows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrTransposeProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
} // namespace sparch
