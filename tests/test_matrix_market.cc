/**
 * @file
 * Matrix Market I/O tests, including malformed-input failure injection.
 */

#include <cfloat>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "driver/workload.hh"
#include "matrix/generators.hh"
#include "matrix/matrix_market.hh"
#include "temp_path.hh"

namespace sparch
{
namespace
{

TEST(MatrixMarket, ParsesGeneralRealMatrix)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment line\n"
        "3 4 2\n"
        "1 1 1.5\n"
        "3 4 -2.0\n");
    const CsrMatrix m = readMatrixMarket(in);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.nnz(), 2u);
    EXPECT_DOUBLE_EQ(m.rowVals(0)[0], 1.5);
    EXPECT_DOUBLE_EQ(m.rowVals(2)[0], -2.0);
}

TEST(MatrixMarket, ExpandsSymmetricMatrices)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 5.0\n"
        "3 3 1.0\n");
    const CsrMatrix m = readMatrixMarket(in);
    EXPECT_EQ(m.nnz(), 3u); // (1,0), (0,1), (2,2)
    EXPECT_DOUBLE_EQ(m.rowVals(0)[0], 5.0);
    EXPECT_DOUBLE_EQ(m.rowVals(1)[0], 5.0);
}

TEST(MatrixMarket, PatternEntriesGetUnitValues)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 2\n"
        "1 2\n"
        "2 1\n");
    const CsrMatrix m = readMatrixMarket(in);
    EXPECT_EQ(m.nnz(), 2u);
    EXPECT_DOUBLE_EQ(m.rowVals(0)[0], 1.0);
}

TEST(MatrixMarket, RoundTripsThroughWriter)
{
    const CsrMatrix m = generateUniform(40, 30, 200, 11);
    std::ostringstream out;
    writeMatrixMarket(m, out);
    std::istringstream in(out.str());
    const CsrMatrix back = readMatrixMarket(in);
    EXPECT_TRUE(m.almostEqual(back, 1e-12));
}

/**
 * The writer before std::to_chars, kept as the reference: every entry
 * through an ostream at setprecision(17).
 */
std::string
ostreamWrite(const CsrMatrix &m)
{
    std::ostringstream out;
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << std::setprecision(17);
    out << m.rows() << " " << m.cols() << " " << m.nnz() << "\n";
    for (Index r = 0; r < m.rows(); ++r) {
        auto cols = m.rowCols(r);
        auto vals = m.rowVals(r);
        for (std::size_t i = 0; i < cols.size(); ++i) {
            out << (r + 1) << " " << (cols[i] + 1) << " " << vals[i]
                << "\n";
        }
    }
    return out.str();
}

std::string
written(const CsrMatrix &m)
{
    std::ostringstream out;
    writeMatrixMarket(m, out);
    return out.str();
}

TEST(MatrixMarket, WriterMatchesTheOstreamFormatByteForByte)
{
    // The power-law matrix writes several times the sink's buffer.
    for (const CsrMatrix &m :
         {generateUniform(40, 30, 200, 11), generateBanded(500, 4, 5.0, 2),
          generatePowerLaw(3000, 8.0, 0.8, 5), CsrMatrix(3, 4)})
        EXPECT_EQ(written(m), ostreamWrite(m));

    constexpr double inf = std::numeric_limits<double>::infinity();
    const std::vector<Value> edges = {
        0.0,     -0.0,   5e-324, -5e-324, DBL_MAX, -DBL_MAX, 0.1,
        1.0 / 3, 2.0,    1e21,   1e-7,    inf,     -inf,
        std::numeric_limits<double>::quiet_NaN()};
    std::vector<Index> cols(edges.size());
    std::iota(cols.begin(), cols.end(), Index{0});
    const CsrMatrix m(
        2, static_cast<Index>(edges.size()),
        {0, 0, static_cast<Index>(edges.size())}, cols, edges);
    EXPECT_EQ(written(m), ostreamWrite(m));
}

/** A stream buffer that cannot seek, like a pipe's. */
class UnseekableBuf : public std::stringbuf
{
  public:
    using std::stringbuf::stringbuf;

  protected:
    pos_type
    seekoff(off_type, std::ios_base::seekdir, std::ios_base::openmode) override
    {
        return pos_type(off_type(-1));
    }

    pos_type
    seekpos(pos_type, std::ios_base::openmode) override
    {
        return pos_type(off_type(-1));
    }
};

TEST(MatrixMarket, ReadsAnUnseekableStream)
{
    const CsrMatrix m = generateUniform(40, 30, 200, 11);
    UnseekableBuf buf(written(m));
    std::istream in(&buf);
    EXPECT_EQ(readMatrixMarket(in), m);
}

// A size line may declare far more entries than follow. The up-front
// reserve is bounded by what the input can hold, so the read fails at
// the missing entries instead of asking for 64 GB first.
TEST(MatrixMarket, LyingSizeLineFailsWithoutAGiantReserve)
{
    const std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "4000000000 4000000000 4000000000\n"
        "1 1 1.0\n";
    std::istringstream seekable(text);
    UnseekableBuf buf(text);
    std::istream unseekable(&buf);
    for (std::istream *in : {static_cast<std::istream *>(&seekable),
                             &unseekable}) {
        try {
            readMatrixMarket(*in);
            ADD_FAILURE() << "a lying size line was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("truncated at entry 1"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(MatrixMarket, RejectsMissingBanner)
{
    std::istringstream in("3 3 0\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MatrixMarket, RejectsUnsupportedFormat)
{
    std::istringstream in("%%MatrixMarket matrix array real general\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MatrixMarket, RejectsUnsupportedField)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate complex general\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MatrixMarket, RejectsTruncatedEntries)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1.0\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MatrixMarket, RejectsOutOfRangeCoordinates)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "3 1 1.0\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MatrixMarket, RejectsMalformedSizeLine)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 two 1\n"
        "1 1 1.0\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MatrixMarket, MissingFileFails)
{
    EXPECT_THROW(readMatrixMarketFile("/nonexistent/file.mtx"),
                 FatalError);
}

// Index is uint32_t; 64-bit dimensions that pass a 64-bit range check
// used to wrap silently through static_cast<Index> and build a corrupt
// matrix. They must be rejected outright.
TEST(MatrixMarket, RejectsOversizedRowDimension)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "4294967296 3 1\n"
        "1 1 1.0\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MatrixMarket, RejectsOversizedColDimension)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 99999999999999 1\n"
        "1 1 1.0\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MatrixMarket, HeaderAcceptsLargestRepresentableDimensions)
{
    // 2^32 - 1 is the largest Index and must stay readable. Only the
    // header is parsed here: materializing the matrix would allocate
    // a 4-billion-entry row-pointer array.
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "4294967295 4294967295 1\n"
        "4294967295 4294967295 2.5\n");
    const MatrixMarketHeader h = readMatrixMarketHeader(in);
    EXPECT_EQ(h.rows, 4294967295u);
    EXPECT_EQ(h.cols, 4294967295u);
}

TEST(MatrixMarket, RejectsEntryCountBeyondDenseCapacity)
{
    // A corrupt size line declaring more entries than rows x cols
    // must fail with FatalError, not abort inside a huge reserve().
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 9000000000000000000\n"
        "1 1 1.0\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);

    std::istringstream zero(
        "%%MatrixMarket matrix coordinate real general\n"
        "0 4 1\n"
        "1 1 1.0\n");
    EXPECT_THROW(readMatrixMarket(zero), FatalError);
}

TEST(MatrixMarket, SkipsBlankLinesBeforeSizeLine)
{
    // Real SuiteSparse dumps leave an empty line after the comments.
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "% comment\n"
        "\n"
        "   \t \n"
        "2 2 1\n"
        "1 2 3.0\n");
    const CsrMatrix m = readMatrixMarket(in);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_DOUBLE_EQ(m.rowVals(0)[0], 3.0);
}

TEST(MatrixMarket, ToleratesTrailingBlankLines)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 2 3.0\n"
        "\n"
        "\n");
    const CsrMatrix m = readMatrixMarket(in);
    EXPECT_EQ(m.nnz(), 1u);
}

TEST(MatrixMarket, HeaderParserReportsDeclaredShape)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "% c\n"
        "\n"
        "7 5 3\n"
        "1 1\n");
    const MatrixMarketHeader h = readMatrixMarketHeader(in);
    EXPECT_EQ(h.field, MmField::Pattern);
    EXPECT_EQ(h.symmetry, MmSymmetry::Symmetric);
    EXPECT_EQ(h.rows, 7u);
    EXPECT_EQ(h.cols, 5u);
    EXPECT_EQ(h.entries, 3u);
    // The stream is left at the first data entry.
    std::uint64_t r = 0, c = 0;
    EXPECT_TRUE(static_cast<bool>(in >> r >> c));
    EXPECT_EQ(r, 1u);
}

// The workload validator and the reader share one header parser, so
// registration must reject exactly what a later read would reject —
// `array` format and `complex` field used to slip through.
class MatrixMarketValidator : public ::testing::Test
{
  protected:
    std::string
    writeFile(const std::string &name, const std::string &contents)
    {
        const std::string path = uniqueTempPath(name);
        std::ofstream out(path);
        out << contents;
        return path;
    }
};

TEST_F(MatrixMarketValidator, RejectsArrayFormatAtRegistration)
{
    const std::string path = writeFile(
        "sparch_mm_array.mtx",
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
    EXPECT_THROW(driver::matrixMarketWorkload(path).validate(),
                 FatalError);
    std::remove(path.c_str());
}

TEST_F(MatrixMarketValidator, RejectsComplexFieldAtRegistration)
{
    const std::string path = writeFile(
        "sparch_mm_complex.mtx",
        "%%MatrixMarket matrix coordinate complex general\n"
        "1 1 1\n1 1 1.0 0.0\n");
    EXPECT_THROW(driver::matrixMarketWorkload(path).validate(),
                 FatalError);
    std::remove(path.c_str());
}

TEST_F(MatrixMarketValidator, RejectsOversizedDimensionsAtRegistration)
{
    const std::string path = writeFile(
        "sparch_mm_huge.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "4294967296 2 1\n1 1 1.0\n");
    EXPECT_THROW(driver::matrixMarketWorkload(path).validate(),
                 FatalError);
    std::remove(path.c_str());
}

TEST_F(MatrixMarketValidator, AcceptsWhatTheReaderAccepts)
{
    const std::string path = writeFile(
        "sparch_mm_good.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "% comment\n"
        "\n"
        "2 2 2\n1 1 1.0\n2 2 2.0\n");
    const driver::Workload w = driver::matrixMarketWorkload(path);
    EXPECT_NO_THROW(w.validate());
    EXPECT_EQ(w.left().nnz(), 2u);
    std::remove(path.c_str());
}

} // namespace
} // namespace sparch
