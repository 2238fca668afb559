/**
 * @file
 * Tests for the synthetic matrix generators and the R-MAT generator.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/benchmarks.hh"
#include "common/logging.hh"
#include "matrix/generators.hh"
#include "matrix/rmat.hh"
#include "matrix/scsr.hh"

namespace sparch
{
namespace
{

TEST(Generators, UniformHitsApproximateNnz)
{
    const CsrMatrix m = generateUniform(200, 200, 3000, 1);
    EXPECT_EQ(m.rows(), 200u);
    EXPECT_EQ(m.cols(), 200u);
    // Duplicates merge, so nnz is slightly below the target.
    EXPECT_GT(m.nnz(), 2800u);
    EXPECT_LE(m.nnz(), 3000u);
}

TEST(Generators, UniformIsDeterministic)
{
    EXPECT_EQ(generateUniform(50, 60, 400, 9),
              generateUniform(50, 60, 400, 9));
    EXPECT_NE(generateUniform(50, 60, 400, 9).nnz(),
              generateUniform(50, 60, 400, 10).nnz());
}

TEST(Generators, UniformRejectsEmptyShape)
{
    EXPECT_THROW(generateUniform(0, 5, 10, 1), FatalError);
}

TEST(Generators, BandedStaysInsideBand)
{
    const Index bandwidth = 6;
    const CsrMatrix m = generateBanded(150, bandwidth, 5.0, 2);
    for (Index r = 0; r < m.rows(); ++r) {
        for (Index c : m.rowCols(r)) {
            const auto dist = r > c ? r - c : c - r;
            EXPECT_LE(dist, bandwidth);
        }
    }
}

TEST(Generators, BandedHasFullDiagonal)
{
    const CsrMatrix m = generateBanded(80, 3, 4.0, 3);
    for (Index r = 0; r < m.rows(); ++r) {
        bool has_diag = false;
        for (Index c : m.rowCols(r))
            has_diag |= (c == r);
        EXPECT_TRUE(has_diag) << "row " << r;
    }
}

TEST(Generators, BandedApproximatesTargetDegree)
{
    const CsrMatrix m = generateBanded(2000, 16, 10.0, 4);
    const double avg = static_cast<double>(m.nnz()) / m.rows();
    EXPECT_NEAR(avg, 10.0, 1.5);
}

TEST(Generators, PowerLawFrontRowsAreDenser)
{
    const CsrMatrix m = generatePowerLaw(1000, 8.0, 0.8, 5);
    std::uint64_t head = 0, tail = 0;
    for (Index r = 0; r < 100; ++r)
        head += m.rowNnz(r);
    for (Index r = 900; r < 1000; ++r)
        tail += m.rowNnz(r);
    EXPECT_GT(head, 2 * tail);
}

TEST(Generators, RoadNetworkHasLowBoundedDegree)
{
    const CsrMatrix m = generateRoadNetwork(500, 6);
    for (Index r = 0; r < m.rows(); ++r)
        EXPECT_LE(m.rowNnz(r), 5u);
    const double avg = static_cast<double>(m.nnz()) / m.rows();
    EXPECT_GT(avg, 1.5);
}

TEST(Generators, BlockDiagonalIsMostlyLocal)
{
    const Index block = 64;
    const CsrMatrix m = generateBlockDiagonal(512, block, 6.0, 0.9, 7);
    std::uint64_t local = 0;
    for (Index r = 0; r < m.rows(); ++r) {
        for (Index c : m.rowCols(r)) {
            if (c / block == r / block)
                ++local;
        }
    }
    EXPECT_GT(static_cast<double>(local) / m.nnz(), 0.75);
}

TEST(Rmat, HitsEdgeFactorApproximately)
{
    const CsrMatrix m = rmatGenerate(1024, 8, 3);
    const double avg = static_cast<double>(m.nnz()) / m.rows();
    // Duplicate edges merge, so the average sits below the factor.
    EXPECT_GT(avg, 4.0);
    EXPECT_LE(avg, 8.0);
}

TEST(Rmat, IsDeterministic)
{
    EXPECT_EQ(rmatGenerate(256, 4, 77), rmatGenerate(256, 4, 77));
}

TEST(Rmat, ProducesSkewedDegrees)
{
    const CsrMatrix m = rmatGenerate(2048, 16, 5);
    Index max_deg = m.maxRowNnz();
    const double avg = static_cast<double>(m.nnz()) / m.rows();
    // Power-law graphs have hubs far above the mean degree.
    EXPECT_GT(static_cast<double>(max_deg), 4.0 * avg);
}

TEST(Rmat, RejectsBadProbabilities)
{
    RmatParams p;
    p.a = 0.9;
    p.b = 0.9;
    EXPECT_THROW(rmatGenerate(64, 4, 1, p), FatalError);
}

TEST(Rmat, RejectsZeroVertices)
{
    EXPECT_THROW(rmatGenerate(0, 4, 1), FatalError);
}

TEST(Rmat, NonPowerOfTwoVertexCountsStayInRange)
{
    const CsrMatrix m = rmatGenerate(1000, 4, 9);
    EXPECT_EQ(m.rows(), 1000u);
    EXPECT_EQ(m.cols(), 1000u);
    for (Index r = 0; r < m.rows(); ++r) {
        for (Index c : m.rowCols(r))
            EXPECT_LT(c, 1000u);
    }
}

/** FNV-1a over a matrix's row pointer, column indices and value bits. */
std::uint64_t
contentHash(const CsrMatrix &m)
{
    std::uint64_t h = fnv1a(m.rowPtr().data(),
                            m.rowPtr().size() * sizeof(Index));
    h = fnv1a(m.colIdx().data(), m.colIdx().size() * sizeof(Index), h);
    return fnv1a(m.values().data(), m.values().size() * sizeof(Value), h);
}

// The bytes of every generated operand: the suite proxies feed the
// golden cycle counts, the fig12 CSV and the benchmark's inputs, so a
// change to generation or canonicalization (order, duplicate sums,
// zero drop) must show here, not only as moved cycles.
TEST(Generators, ProxyBytesArePinned)
{
    const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
        {"2cubes_sphere", 0xb62cf29e97c32ce2ULL},
        {"amazon0312", 0xdd8796192599f54dULL},
        {"ca-CondMat", 0xf3fb9d59e9d30e31ULL},
        {"cage12", 0x10969fa51040be80ULL},
        {"cit-Patents", 0x1a98642b90de5ce5ULL},
        {"cop20k_A", 0x1334cbf281829f91ULL},
        {"email-Enron", 0xefdca6a3bc85238dULL},
        {"facebook", 0x315e79aa30c99a5cULL},
        {"filter3D", 0x3618f582abd1d17aULL},
        {"m133-b3", 0xe743ef4855ab7061ULL},
        {"mario002", 0xf5d17fbfe5f17339ULL},
        {"offshore", 0xe9f82f4b6b90d991ULL},
        {"p2p-Gnutella31", 0x2f1971537ca4a88cULL},
        {"patents_main", 0x7376a6dbc5906e19ULL},
        {"poisson3Da", 0x59c2fdb19174d5f0ULL},
        {"roadNet-CA", 0x05dc88b704eaef81ULL},
        {"scircuit", 0x901c579d14f0f8feULL},
        {"web-Google", 0x6826b239fc1cdc10ULL},
        {"webbase-1M", 0x6f6b16ac4817dc56ULL},
        {"wiki-Vote", 0x9e19bd7a61cdf542ULL},
        {"uniform", 0x56956023d8a61819ULL},
        {"rmat", 0xb1e057dfa72f956cULL},
        {"power-law", 0x1a3c02a6b3f24604ULL}
    };
    std::vector<std::pair<std::string, CsrMatrix>> made;
    for (const BenchmarkSpec &spec : benchmarkSuite())
        made.emplace_back(spec.name,
                          generateBenchmark(spec, defaultScale(spec, 30000),
                                            1));
    made.emplace_back("uniform", generateUniform(300, 400, 5000, 7));
    made.emplace_back("rmat", rmatGenerate(1024, 8, 3));
    made.emplace_back("power-law", generatePowerLaw(2000, 6.0, 0.8, 5));
    ASSERT_EQ(made.size(), pinned.size());
    for (std::size_t i = 0; i < made.size(); ++i) {
        EXPECT_EQ(made[i].first, pinned[i].first);
        EXPECT_EQ(contentHash(made[i].second), pinned[i].second)
            << made[i].first;
    }
}

} // namespace
} // namespace sparch
