/**
 * @file
 * Integration tests: the full SpArch cycle simulator must compute the
 * exact product (against the reference Gustavson SpGEMM) under every
 * configuration — all ablation switches, tree geometries, buffer
 * sizes, matrix families and shapes — while reporting self-consistent
 * metrics.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/sparch_simulator.hh"
#include "matrix/generators.hh"
#include "matrix/reference_spgemm.hh"
#include "matrix/rmat.hh"

namespace sparch
{
namespace
{

void
expectCorrect(const SpArchConfig &cfg, const CsrMatrix &a,
              const CsrMatrix &b, const char *label)
{
    SpArchSimulator sim(cfg);
    const SpArchResult r = sim.multiply(a, b);
    SpgemmCounts counts;
    const CsrMatrix golden = spgemmDenseAccumulator(a, b, &counts);
    EXPECT_TRUE(r.result.almostEqual(golden)) << label;
    EXPECT_EQ(r.multiplies, counts.multiplies) << label;
    EXPECT_GT(r.cycles, 0u) << label;
    EXPECT_GT(r.bytesTotal, 0u) << label;
}

TEST(SpArchSimulator, SquaresUniformMatrix)
{
    const CsrMatrix a = generateUniform(300, 300, 2400, 1);
    expectCorrect(SpArchConfig{}, a, a, "uniform");
}

TEST(SpArchSimulator, MultipliesDistinctMatrices)
{
    const CsrMatrix a = generateUniform(200, 200, 1500, 2);
    const CsrMatrix b = generateUniform(200, 200, 1500, 3);
    expectCorrect(SpArchConfig{}, a, b, "distinct");
}

TEST(SpArchSimulator, HandlesRectangularShapes)
{
    const CsrMatrix a = generateUniform(120, 250, 1200, 4);
    const CsrMatrix b = generateUniform(250, 80, 1300, 5);
    expectCorrect(SpArchConfig{}, a, b, "rectangular");
}

TEST(SpArchSimulator, HandlesEmptyOperands)
{
    SpArchSimulator sim;
    const CsrMatrix a(40, 40);
    const CsrMatrix b = generateUniform(40, 40, 100, 6);
    EXPECT_EQ(sim.multiply(a, b).result.nnz(), 0u);
    EXPECT_EQ(sim.multiply(b, a).result.nnz(), 0u);
}

TEST(SpArchSimulator, DimensionMismatchIsFatal)
{
    SpArchSimulator sim;
    EXPECT_THROW(sim.multiply(CsrMatrix(3, 4), CsrMatrix(5, 6)),
                 FatalError);
}

TEST(SpArchSimulator, UndersizedPrefetchBufferIsRejected)
{
    // Fewer than 4 lines per merge way cannot hold the column
    // fetchers' in-flight rows (see Fig. 17b's smallest point).
    SpArchConfig cfg;
    cfg.prefetchLines = 16;
    EXPECT_THROW(SpArchSimulator{cfg}, FatalError);
    cfg.rowPrefetcher = false; // without the prefetcher it is legal
    SpArchSimulator ok{cfg};
}

TEST(SpArchSimulator, DiagonalMatrixSingleCondensedColumn)
{
    CooMatrix d(64, 64);
    for (Index i = 0; i < 64; ++i)
        d.add(i, i, 2.0);
    d.canonicalize();
    const CsrMatrix m = CsrMatrix::fromCoo(d);
    SpArchSimulator sim;
    const SpArchResult r = sim.multiply(m, m);
    EXPECT_EQ(r.partialMatrices, 1u);
    EXPECT_EQ(r.mergeRounds, 1u);
    EXPECT_TRUE(
        r.result.almostEqual(spgemmDenseAccumulator(m, m)));
}

TEST(SpArchSimulator, MetricsAreSelfConsistent)
{
    const CsrMatrix a = generateUniform(400, 400, 3000, 7);
    SpArchSimulator sim;
    const SpArchResult r = sim.multiply(a, a);
    EXPECT_EQ(r.flops, 2 * r.multiplies);
    EXPECT_NEAR(r.seconds, static_cast<double>(r.cycles) / 1e9,
                1e-12);
    EXPECT_GT(r.gflops, 0.0);
    EXPECT_LE(r.bandwidthUtilization, 1.0);
    EXPECT_GE(r.prefetchHitRate, 0.0);
    EXPECT_LE(r.prefetchHitRate, 1.0);
    EXPECT_EQ(r.bytesTotal,
              r.bytesMatA + r.bytesMatB + r.bytesPartialRead +
                  r.bytesPartialWrite + r.bytesFinalWrite);
    // The final write must cover the result payload.
    EXPECT_GE(r.bytesFinalWrite,
              r.result.nnz() * bytesPerElement);
}

TEST(SpArchSimulator, MultiRoundMergeUsesPartialResults)
{
    // Force multiple rounds with a tiny merge tree.
    SpArchConfig cfg;
    cfg.mergeTree.layers = 2; // 4-way merge
    const CsrMatrix a = generateUniform(300, 300, 2400, 8);
    SpArchSimulator sim(cfg);
    const SpArchResult r = sim.multiply(a, a);
    EXPECT_GT(r.mergeRounds, 1u);
    EXPECT_GT(r.bytesPartialWrite, 0u);
    EXPECT_GT(r.bytesPartialRead, 0u);
    EXPECT_TRUE(
        r.result.almostEqual(spgemmDenseAccumulator(a, a)));
}

TEST(SpArchSimulator, HuffmanBeatsSequentialOnPartialTraffic)
{
    SpArchConfig cfg;
    cfg.mergeTree.layers = 2;
    const CsrMatrix a = rmatGenerate(600, 8, 9);

    SpArchSimulator huffman(cfg);
    const auto r1 = huffman.multiply(a, a);

    cfg.scheduler = SchedulerKind::Sequential;
    SpArchSimulator sequential(cfg);
    const auto r2 = sequential.multiply(a, a);

    EXPECT_LE(r1.bytesPartialWrite, r2.bytesPartialWrite);
}

TEST(SpArchSimulator, PrefetcherReducesMatBTraffic)
{
    const CsrMatrix a = rmatGenerate(500, 8, 10);
    SpArchConfig cfg;
    SpArchSimulator with(cfg);
    const auto r1 = with.multiply(a, a);

    cfg.rowPrefetcher = false;
    SpArchSimulator without(cfg);
    const auto r2 = without.multiply(a, a);

    EXPECT_LT(r1.bytesMatB, r2.bytesMatB);
    EXPECT_GT(r1.prefetchHitRate, 0.2);
    EXPECT_TRUE(r1.result.almostEqual(r2.result));
}

TEST(SpArchSimulator, CondensingReducesPartialMatrices)
{
    const CsrMatrix a = generateUniform(800, 800, 6400, 11);
    SpArchConfig cfg;
    SpArchSimulator with(cfg);
    const auto r1 = with.multiply(a, a);

    cfg.matrixCondensing = false;
    SpArchSimulator without(cfg);
    const auto r2 = without.multiply(a, a);

    // Condensed columns = longest row; plain outer product has one
    // partial matrix per nonempty column.
    EXPECT_LT(20 * r1.partialMatrices, r2.partialMatrices);
    EXPECT_LT(r1.bytesTotal, r2.bytesTotal);
    EXPECT_TRUE(r1.result.almostEqual(r2.result));
}

/** Expected absolute figures of one simulation. */
struct Golden
{
    Cycle cycles;
    Bytes bytesTotal;
    std::size_t nnz;
    std::uint64_t mergeRounds;
    std::uint64_t multiplies;
    std::uint64_t additions;
};

void
expectGolden(const SpArchConfig &cfg, const CsrMatrix &a,
             const Golden &want, const char *label)
{
    const SpArchResult r = SpArchSimulator(cfg).multiply(a, a);
    EXPECT_EQ(r.cycles, want.cycles) << label;
    EXPECT_EQ(r.bytesTotal, want.bytesTotal) << label;
    EXPECT_EQ(r.result.nnz(), want.nnz) << label;
    EXPECT_EQ(r.mergeRounds, want.mergeRounds) << label;
    EXPECT_EQ(r.multiplies, want.multiplies) << label;
    EXPECT_EQ(r.additions, want.additions) << label;
}

// Absolute cycle and traffic pins: any change to module timing, the
// tick order or the memory model moves one of these numbers. A change
// that moves them on purpose re-derives them and says why.
TEST(SpArchSimulator, GoldenCyclesAndTrafficOnUniformSquare)
{
    expectGolden(SpArchConfig{}, generateUniform(300, 300, 2400, 11),
                 {2204, 263632, 17039, 1, 18848, 1809}, "uniform");
}

TEST(SpArchSimulator, GoldenCyclesAndTrafficOnRmat)
{
    expectGolden(SpArchConfig{}, rmatGenerate(1 << 9, 8, 21),
                 {15235, 662472, 46487, 3, 103096, 56609}, "rmat");
}

TEST(SpArchSimulator, GoldenCyclesAndTrafficAcrossAblations)
{
    const CsrMatrix a = generateUniform(250, 250, 2000, 13);
    SpArchConfig no_prefetch;
    no_prefetch.rowPrefetcher = false;
    expectGolden(no_prefetch, a, {17980, 372012, 13583, 1, 15294, 1711},
                 "no-prefetcher");
    SpArchConfig no_condense;
    no_condense.matrixCondensing = false;
    expectGolden(no_condense, a, {4444, 418672, 13583, 4, 15294, 1711},
                 "no-condense");
    SpArchConfig small_tree;
    small_tree.mergeTree.layers = 4;
    expectGolden(small_tree, a, {1890, 213384, 13583, 2, 15294, 1711},
                 "16-way tree");
}

/** Parameterized sweep: config x workload grid, all must be exact. */
struct SimCase
{
    const char *name;
    unsigned layers;
    unsigned width;
    bool condensing;
    SchedulerKind sched;
    bool prefetcher;
    std::size_t lines;
    std::size_t line_elems;
    std::size_t lookahead;
};

// Without this gtest prints the raw bytes of a SimCase, including the
// address of `name`, into each case's listed name, so the ctest names
// would change from build to build.
void
PrintTo(const SimCase &c, std::ostream *os)
{
    *os << c.name;
}

class SimulatorGrid : public ::testing::TestWithParam<SimCase>
{};

TEST_P(SimulatorGrid, ExactOnAllWorkloads)
{
    const SimCase &c = GetParam();
    SpArchConfig cfg;
    cfg.mergeTree.layers = c.layers;
    cfg.mergeTree.mergerWidth = c.width;
    cfg.matrixCondensing = c.condensing;
    cfg.scheduler = c.sched;
    cfg.rowPrefetcher = c.prefetcher;
    cfg.prefetchLines = c.lines;
    cfg.prefetchLineElems = c.line_elems;
    cfg.lookaheadFifo = c.lookahead;

    const CsrMatrix workloads[] = {
        generateUniform(250, 250, 2000, 21),
        generateBanded(300, 6, 5.0, 22),
        rmatGenerate(256, 6, 23),
        generateRoadNetwork(300, 24),
    };
    for (const auto &a : workloads)
        expectCorrect(cfg, a, a, c.name);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SimulatorGrid,
    ::testing::Values(
        SimCase{"table1_default", 6, 16, true,
                SchedulerKind::Huffman, true, 1024, 48, 8192},
        SimCase{"tiny_tree", 1, 16, true, SchedulerKind::Huffman,
                true, 1024, 48, 8192},
        SimCase{"narrow_merger", 6, 1, true, SchedulerKind::Huffman,
                true, 1024, 48, 8192},
        SimCase{"no_condense_seq", 4, 16, false,
                SchedulerKind::Sequential, true, 1024, 48, 8192},
        SimCase{"no_condense_rand_nopref", 4, 16, false,
                SchedulerKind::Random, false, 1024, 48, 8192},
        SimCase{"tiny_buffer", 6, 16, true, SchedulerKind::Huffman,
                true, 256, 8, 8192},
        SimCase{"tiny_lookahead", 6, 16, true,
                SchedulerKind::Huffman, true, 1024, 48, 64},
        SimCase{"random_sched", 3, 8, true, SchedulerKind::Random,
                true, 256, 24, 2048}),
    [](const auto &info) { return info.param.name; });

} // namespace
} // namespace sparch
