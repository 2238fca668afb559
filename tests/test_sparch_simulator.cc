/**
 * @file
 * Integration tests: the full SpArch cycle simulator must compute the
 * exact product (against the reference Gustavson SpGEMM) under every
 * configuration — all ablation switches, tree geometries, buffer
 * sizes, matrix families and shapes — while reporting self-consistent
 * metrics.
 */

#include <iterator>
#include <string_view>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/condensed_matrix.hh"
#include "core/sparch_simulator.hh"
#include "expect_measurements.hh"
#include "matrix/generators.hh"
#include "matrix/reference_spgemm.hh"
#include "matrix/rmat.hh"

namespace sparch
{
namespace
{

SpArchResult
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
    return r;
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

// ------------------------------------------------ count-only products

/**
 * Multiply a x b with and without building the product; the count-only
 * run must measure exactly the same. Returns the product run.
 */
SpArchResult
expectCountOnlyExact(const SpArchConfig &cfg, const CsrMatrix &a,
                     const CsrMatrix &b, const char *label)
{
    SCOPED_TRACE(label);
    const SpArchSimulator sim(cfg);
    const SpArchResult built = sim.multiply(a, b);
    expectCountMatchesBuild(built, sim.multiply(a, b, ProductMode::Count));
    return built;
}

TEST(SpArchSimulator, CountOnlyMeasuresWhatTheProductRunMeasures)
{
    const CsrMatrix a = generateUniform(300, 300, 2400, 8);
    const SpArchResult one_round =
        expectCountOnlyExact(SpArchConfig{}, a, a, "table I");
    EXPECT_EQ(one_round.mergeRounds, 1u);

    SpArchConfig tiny_tree;
    tiny_tree.mergeTree.layers = 2; // 4-way merge: many rounds
    const SpArchResult rounds =
        expectCountOnlyExact(tiny_tree, a, a, "4-way tree");
    EXPECT_GT(rounds.mergeRounds, 1u);
    EXPECT_GT(rounds.bytesPartialRead, 0u);

    SpArchConfig plain;
    plain.matrixCondensing = false;
    plain.mergeTree.layers = 3;
    const SpArchResult outer =
        expectCountOnlyExact(plain, a, a, "no condensing, 8-way tree");
    EXPECT_GT(outer.mergeRounds, 1u);

    const CsrMatrix b = generateUniform(300, 90, 1400, 9);
    expectCountOnlyExact(tiny_tree, a, b, "rectangular product");
}

TEST(SpArchSimulator, CountOnlyEmptyProduct)
{
    // A's nonzeros sit in columns 0..9 and B's in rows 20..39: both
    // operands have nonzeros, every partial product is empty.
    CooMatrix left(40, 40), right(40, 40);
    for (Index i = 0; i < 40; ++i) {
        left.add(i, i % 10, 1.0);
        right.add(20 + i / 2, i, 2.0);
    }
    left.canonicalize();
    right.canonicalize();
    const CsrMatrix a = CsrMatrix::fromCoo(left);
    const CsrMatrix b = CsrMatrix::fromCoo(right);
    const SpArchResult built = expectCountOnlyExact({}, a, b, "empty");
    EXPECT_EQ(built.resultNnz, 0u);
    EXPECT_EQ(built.result.rows(), 40u);

    // An operand without nonzeros never reaches the pipeline.
    expectCountOnlyExact({}, CsrMatrix(40, 40), b, "empty operand");
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
    // Per-module poll and traffic counters. The stall counters count
    // port polls, not cycles: a port blocked for n cycles counts n.
    std::uint64_t portFullStalls;
    std::uint64_t rowWaitStalls;
    std::uint64_t prefetchMisses;
    std::uint64_t evictions;
    std::uint64_t elementsFetched;
    // Merge-tree element movement: merger outputs, node FIFO SRAM
    // accesses, and cycles in which no level moved anything.
    std::uint64_t treeElementsMerged;
    std::uint64_t treeFifoPushes;
    std::uint64_t treeFifoPops;
    std::uint64_t treeIdleCycles;
    // Per-cycle counters: the cycles a next-event skip jumps over must
    // add exactly what ticking through them would.
    std::uint64_t prefetchStallCycles;
    std::uint64_t issueCycles;
    std::uint64_t multiplierActiveCycles;
    std::uint64_t writerBusyCycles;
    std::uint64_t writerBursts;
    std::uint64_t treeCycles;
};

SpArchResult
expectGolden(const SpArchConfig &cfg, const CsrMatrix &a,
             const CsrMatrix &b, const Golden &want, const char *label)
{
    const SpArchResult r = SpArchSimulator(cfg).multiply(a, b);
    EXPECT_EQ(r.cycles, want.cycles) << label;
    EXPECT_EQ(r.bytesTotal, want.bytesTotal) << label;
    EXPECT_EQ(r.result.nnz(), want.nnz) << label;
    EXPECT_EQ(r.mergeRounds, want.mergeRounds) << label;
    EXPECT_EQ(r.multiplies, want.multiplies) << label;
    EXPECT_EQ(r.additions, want.additions) << label;
    const auto stat = [&](const char *key) {
        return static_cast<std::uint64_t>(r.stats.get(key));
    };
    EXPECT_EQ(stat("multiplier.port_full_stalls"), want.portFullStalls)
        << label;
    EXPECT_EQ(stat("multiplier.row_wait_stalls"), want.rowWaitStalls)
        << label;
    EXPECT_EQ(stat("row_prefetcher.misses"), want.prefetchMisses)
        << label;
    EXPECT_EQ(stat("row_prefetcher.evictions"), want.evictions) << label;
    EXPECT_EQ(stat("mata_fetcher.elements_fetched"),
              want.elementsFetched)
        << label;
    EXPECT_EQ(stat("merge_tree.elements_merged"), want.treeElementsMerged)
        << label;
    EXPECT_EQ(stat("merge_tree.fifo_pushes"), want.treeFifoPushes)
        << label;
    EXPECT_EQ(stat("merge_tree.fifo_pops"), want.treeFifoPops) << label;
    EXPECT_EQ(stat("merge_tree.idle_cycles"), want.treeIdleCycles)
        << label;
    EXPECT_EQ(stat("row_prefetcher.stall_cycles"), want.prefetchStallCycles)
        << label;
    EXPECT_EQ(stat("mata_fetcher.issue_cycles"), want.issueCycles)
        << label;
    EXPECT_EQ(stat("multiplier.active_cycles"), want.multiplierActiveCycles)
        << label;
    EXPECT_EQ(stat("writer.busy_cycles"), want.writerBusyCycles) << label;
    EXPECT_EQ(stat("writer.bursts"), want.writerBursts) << label;
    EXPECT_EQ(stat("merge_tree.cycles"), want.treeCycles) << label;
    return r;
}

// Absolute cycle, traffic and poll-counter pins: any change to module
// timing, the tick order, the memory model, the port scans or the
// merge tree's element movement moves one of these numbers. A change
// that moves them on purpose re-derives them and says why.
TEST(SpArchSimulator, GoldenCyclesAndTrafficOnUniformSquare)
{
    const CsrMatrix a = generateUniform(300, 300, 2400, 11);
    expectGolden(SpArchConfig{}, a, a,
                 {2204, 263632, 17039, 1, 18848, 1809, 13698, 1270, 300, 0,
                  2365, 107430, 124469, 124469, 547,
                  0, 887, 1529, 1452, 67, 2204},
                 "uniform");
}

TEST(SpArchSimulator, GoldenCyclesAndTrafficOnRmat)
{
    const CsrMatrix a = rmatGenerate(1 << 9, 8, 21);
    expectGolden(SpArchConfig{}, a, a,
                 {15235, 662472, 46487, 3, 103096, 56609, 307542, 733, 432,
                  0, 3197, 441211, 488215, 488215, 642,
                  0, 1176, 13585, 5929, 185, 15235},
                 "rmat");
}

TEST(SpArchSimulator, GoldenCyclesAndTrafficAcrossAblations)
{
    const CsrMatrix a = generateUniform(250, 250, 2000, 13);
    SpArchConfig no_prefetch;
    no_prefetch.rowPrefetcher = false;
    expectGolden(no_prefetch, a, a,
                 {17980, 372012, 13583, 1, 15294, 1711, 47949, 140995,
                  1957, 0, 1957, 86399, 99982, 99982, 14202,
                  0, 1245, 2325, 1329, 54, 17980},
                 "no-prefetcher");
    SpArchConfig no_condense;
    no_condense.matrixCondensing = false;
    expectGolden(no_condense, a, a,
                 {4444, 418672, 13583, 4, 15294, 1711, 4925, 1082, 250, 0,
                  1957, 140702, 162897, 162897, 769,
                  0, 124, 1036, 2021, 89, 4444},
                 "no-condense");
    SpArchConfig small_tree;
    small_tree.mergeTree.layers = 4;
    expectGolden(small_tree, a, a,
                 {1890, 213384, 13583, 2, 15294, 1711, 8507, 803, 256, 0,
                  1957, 59245, 72867, 72867, 565,
                  0, 689, 1207, 1133, 55, 1890},
                 "16-way tree");
}

// A prefetch buffer far smaller than the working set evicts lines of
// rows whose port heads were already polled ready, both in the
// prefetcher's own update and mid-scan from the multiplier's demand
// fetches.
TEST(SpArchSimulator, GoldenCyclesAndTrafficUnderPrefetchThrashing)
{
    const CsrMatrix a = generateUniform(250, 250, 2000, 13);
    SpArchConfig thrash;
    thrash.mergeTree.layers = 4;
    thrash.prefetchLines = 64;
    thrash.prefetchLineElems = 4;
    expectGolden(thrash, a, a,
                 {13613, 482220, 13583, 2, 15294, 1711, 22662, 125162,
                  7247, 7171, 1957, 59251, 72873, 72873, 11162,
                  150, 1026, 1772, 1235, 55, 13613},
                 "thrashing 16-way tree");

    // Here a demand fetch evicts the row of a port that the same scan
    // visits later in the cycle; the cycle count depends on that port
    // being polled again rather than skipped.
    const CsrMatrix dense = generateUniform(200, 200, 3000, 5);
    SpArchConfig thrash_dense = thrash;
    thrash_dense.prefetchLines = 128;
    expectGolden(thrash_dense, dense, dense,
                 {15705, 1112520, 25777, 2, 41313, 15536, 11095, 185706,
                  15887, 15631, 2879, 162981, 191962, 191962, 10621,
                  443, 1601, 3379, 2708, 114, 15705},
                 "thrashing 16-way tree, denser operand");

    // With a short look-ahead window the buffer evicts lines of rows
    // that parked ports wait on before those rows land; such a port
    // must be polled again right after the eviction, not at the
    // landing cycle it was parked until.
    SpArchConfig thrash_short = thrash;
    thrash_short.lookaheadFifo = 64;
    expectGolden(thrash_short, dense, dense,
                 {20909, 1214076, 25777, 2, 41313, 15536, 15232, 253563,
                  18641, 18513, 2879, 163041, 192022, 192022, 14644,
                  172, 1721, 3792, 2851, 114, 20909},
                 "thrashing 16-way tree, short look-ahead");

    const CsrMatrix wide = generateUniform(100, 400, 8000, 17);
    const CsrMatrix b = generateUniform(400, 400, 2000, 19);
    SpArchConfig thrash_wide;
    thrash_wide.mergeTree.layers = 7;
    thrash_wide.prefetchLines = 512;
    thrash_wide.prefetchLineElems = 2;
    expectGolden(thrash_wide, wide, b,
                 {6817, 731124, 23729, 1, 36008, 12279, 200, 427983, 16367,
                  15855, 7290, 231302, 255031, 255031, 2820,
                  414, 1290, 2697, 2246, 93, 6817},
                 "thrashing 128-way tree");
}

// The recency policies rank rows by their last touch (LRU) or by when
// they became resident (FIFO) instead of by their next use, so under
// the thrashing buffers above they pick other victims than Belady and
// refetch more of B.
TEST(SpArchSimulator, GoldenCyclesAndTrafficUnderLruAndFifo)
{
    const CsrMatrix a = generateUniform(250, 250, 2000, 13);
    const CsrMatrix dense = generateUniform(200, 200, 3000, 5);
    const CsrMatrix wide = generateUniform(100, 400, 8000, 17);
    const CsrMatrix b = generateUniform(400, 400, 2000, 19);
    SpArchConfig thrash;
    thrash.mergeTree.layers = 4;
    thrash.prefetchLines = 64;
    thrash.prefetchLineElems = 4;
    SpArchConfig thrash_dense = thrash;
    thrash_dense.prefetchLines = 128;
    SpArchConfig thrash_wide;
    thrash_wide.mergeTree.layers = 7;
    thrash_wide.prefetchLines = 512;
    thrash_wide.prefetchLineElems = 2;

    struct Row
    {
        const SpArchConfig *config;
        ReplacementPolicy policy;
        const CsrMatrix *a;
        const CsrMatrix *b;
        Golden want;
        std::uint64_t hits;
        Bytes bytesMatB;
        const char *label;
    };
    const Row rows[] = {
        {&thrash, ReplacementPolicy::Lru, &a, &a,
         {19254, 519228, 13583, 2, 15294, 1711, 49659, 156190, 8170,
          8094, 1957, 59259, 72881, 72881, 16485,
          147, 1165, 2207, 1285, 55, 19254},
         427, 329796, "lru, 16-way tree"},
        {&thrash, ReplacementPolicy::Fifo, &a, &a,
         {19147, 519660, 13583, 2, 15294, 1711, 49767, 156031, 8180,
          8104, 1957, 59266, 72888, 72888, 16184,
          145, 1169, 2225, 1309, 55, 19147},
         430, 330228, "fifo, 16-way tree"},
        {&thrash_dense, ReplacementPolicy::Lru, &dense, &dense,
         {21754, 1250664, 25777, 2, 41313, 15536, 23989, 249240, 19064,
          18808, 2879, 163087, 192068, 192068, 16100,
          447, 1683, 3869, 2789, 114, 21754},
         1866, 827976, "lru, 16-way tree, denser operand"},
        {&thrash_dense, ReplacementPolicy::Fifo, &dense, &dense,
         {21831, 1250388, 25777, 2, 41313, 15536, 23884, 247836, 19052,
          18796, 2879, 163049, 192030, 192030, 16229,
          458, 1667, 3877, 2778, 114, 21831},
         1850, 827700, "fifo, 16-way tree, denser operand"},
        {&thrash_wide, ReplacementPolicy::Lru, &wide, &b,
         {8861, 856368, 23729, 1, 36008, 12279, 7960, 567339, 22072,
          21560, 7290, 231329, 255058, 255058, 3253,
          458, 1478, 3255, 2283, 93, 8861},
         8144, 483336, "lru, 128-way tree"},
        {&thrash_wide, ReplacementPolicy::Fifo, &wide, &b,
         {8916, 858576, 23729, 1, 36008, 12279, 10076, 565576, 22174,
          21662, 7290, 231357, 255086, 255086, 3231,
          476, 1504, 3267, 2293, 93, 8916},
         8064, 485544, "fifo, 128-way tree"},
    };
    for (const Row &row : rows) {
        SpArchConfig cfg = *row.config;
        cfg.replacement = row.policy;
        const SpArchResult r =
            expectGolden(cfg, *row.a, *row.b, row.want, row.label);
        EXPECT_EQ(static_cast<std::uint64_t>(
                      r.stats.get("row_prefetcher.hits")),
                  row.hits)
            << row.label;
        EXPECT_EQ(r.bytesMatB, row.bytesMatB) << row.label;
    }
}

// Trees wider than 64 leaves keep their per-port state in several
// 64-bit words; these rounds use a port count that spans more than
// one word and ends inside a partial word.
TEST(SpArchSimulator, GoldenCyclesAndTrafficOnMultiWordPortScans)
{
    const CsrMatrix wide = generateUniform(100, 400, 8000, 17);
    const CsrMatrix b = generateUniform(400, 400, 2000, 19);
    // One merge round, one fresh port per condensed column.
    const Index ports7 = CondensedMatrix(wide).numColumns();
    EXPECT_EQ(ports7, 95u);
    SpArchConfig layers7;
    layers7.mergeTree.layers = 7;
    expectGolden(layers7, wide, b,
                 {3589, 396852, 23729, 1, 36008, 12279, 53814, 0, 397, 0,
                  7290, 231282, 255011, 255011, 499,
                  0, 1079, 2407, 2235, 93, 3589},
                 "128-way tree, 95 ports");

    const CsrMatrix wider = generateUniform(60, 1000, 9000, 23);
    const CsrMatrix c = generateUniform(1000, 300, 3000, 29);
    const Index ports8 = CondensedMatrix(wider).numColumns();
    EXPECT_EQ(ports8, 164u);
    SpArchConfig layers8;
    layers8.mergeTree.layers = 8;
    expectGolden(layers8, wider, c,
                 {3342, 299608, 13590, 1, 25154, 11564, 1842, 79947, 955,
                  0, 8350, 179099, 192689, 192689, 1010,
                  2077, 522, 1582, 1256, 54, 3342},
                 "256-way tree, 164 ports");
}

// Banked DRAM (Ddr4Backend/Lpddr4Backend) stalls the pipeline far
// longer per miss than HBM, so ports wait on element and row reads
// and the merge tree idles for most of the run.
TEST(SpArchSimulator, GoldenCyclesAndTrafficOnBankedDram)
{
    const CsrMatrix a = rmatGenerate(1 << 9, 8, 21);
    SpArchConfig ddr4;
    ddr4.memory.kind = mem::MemoryKind::Ddr4;
    expectGolden(ddr4, a, a,
                 {51653, 662472, 46487, 3, 103096, 56609, 883444, 37622,
                  432, 0, 3197, 441245, 488249, 488249, 36547,
                  0, 1171, 13811, 5960, 185, 51653},
                 "ddr4");
    SpArchConfig ddr4_l5 = ddr4;
    ddr4_l5.mergeTree.layers = 5;
    expectGolden(ddr4_l5, a, a,
                 {61743, 746912, 46487, 6, 103096, 56609, 907990, 37334,
                  608, 0, 3197, 399926, 449528, 449528, 47534,
                  0, 1165, 13012, 6084, 197, 61743},
                 "ddr4, 32-way tree");
    // Four rows ahead per fetcher: the prefetch cursor sits at the
    // rows-ahead limit through most quiet spans, so each skipped cycle
    // must count as a prefetcher stall.
    SpArchConfig ddr4_ahead4 = ddr4;
    ddr4_ahead4.prefetchRowsAhead = 4;
    expectGolden(ddr4_ahead4, a, a,
                 {48794, 662472, 46487, 3, 103096, 56609, 625765, 392010,
                  432, 0, 3197, 440435, 487439, 487439, 36857,
                  40207, 1159, 10868, 5331, 185, 48794},
                 "ddr4, 4 rows ahead per fetcher");
    SpArchConfig lpddr4;
    lpddr4.memory.kind = mem::MemoryKind::Lpddr4;
    const SpArchResult lp = expectGolden(lpddr4, a, a,
                 {117628, 662472, 46487, 3, 103096, 56609, 2037080, 80869,
                  432, 0, 3197, 441270, 488274, 488274, 102529,
                  0, 1178, 13830, 5935, 185, 117628},
                 "lpddr4");
    // The kernel jumps over 82% of these cycles, in 2332 spans between
    // module events. SPARCH_DCHECK builds tick through the same spans,
    // check them, and report the same figures.
    EXPECT_EQ(lp.stats.get("kernel.skipped_cycles"), 97014);
    EXPECT_EQ(lp.stats.get("kernel.skip_spans"), 2332);
    SpArchConfig lpddr4_l5 = lpddr4;
    lpddr4_l5.mergeTree.layers = 5;
    expectGolden(lpddr4_l5, a, a,
                 {137592, 746912, 46487, 6, 103096, 56609, 2058812, 68548,
                  608, 0, 3197, 399831, 449433, 449433, 123529,
                  0, 1166, 12939, 6069, 197, 137592},
                 "lpddr4, 32-way tree");
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

/**
 * Cycles, multiplier.row_wait_stalls, multiplier.port_full_stalls and
 * merge_tree.idle_cycles of one grid config on one workload (an index
 * into ExactOnAllWorkloads' workloads).
 */
struct GridPin
{
    const char *config;
    unsigned workload;
    Cycle cycles;
    std::uint64_t rowWait;
    std::uint64_t portFull;
    std::uint64_t treeIdle;
};

constexpr GridPin kGridPins[] = {
    {"table1_default", 0, 1790, 1066, 10226, 437},
    {"table1_default", 1, 839, 529, 2750, 219},
    {"table1_default", 2, 2885, 166, 21206, 291},
    {"table1_default", 3, 523, 121, 309, 241},
    {"tiny_tree", 0, 11699, 559, 2668, 8286},
    {"tiny_tree", 1, 4250, 281, 523, 3053},
    {"tiny_tree", 2, 19343, 1097, 4019, 14905},
    {"tiny_tree", 3, 1422, 145, 417, 1088},
    {"narrow_merger", 0, 16154, 757, 166789, 156},
    {"narrow_merger", 1, 7850, 539, 47160, 135},
    {"narrow_merger", 2, 23461, 200, 278421, 224},
    {"narrow_merger", 3, 2578, 72, 8109, 118},
    {"no_condense_seq", 0, 6619, 1548, 205, 3653},
    {"no_condense_seq", 1, 4146, 3881, 0, 2885},
    {"no_condense_seq", 2, 7254, 841, 4941, 3015},
    {"no_condense_seq", 3, 2770, 3099, 0, 2124},
    {"no_condense_rand_nopref", 0, 22495, 152729, 112, 16097},
    {"no_condense_rand_nopref", 1, 14947, 110806, 0, 11540},
    {"no_condense_rand_nopref", 2, 32051, 89206, 6551, 25371},
    {"no_condense_rand_nopref", 3, 10133, 58600, 0, 8494},
    {"tiny_buffer", 0, 3566, 18808, 16729, 1931},
    {"tiny_buffer", 1, 1780, 7015, 2335, 1046},
    {"tiny_buffer", 2, 2886, 320, 21390, 286},
    {"tiny_buffer", 3, 1101, 2055, 215, 781},
    {"tiny_lookahead", 0, 2052, 8883, 7380, 531},
    {"tiny_lookahead", 1, 1934, 12652, 6, 1021},
    {"tiny_lookahead", 2, 2849, 3798, 19046, 315},
    {"tiny_lookahead", 3, 1125, 3555, 0, 655},
    {"random_sched", 0, 5642, 1132, 17595, 914},
    {"random_sched", 1, 2547, 4270, 4982, 1061},
    {"random_sched", 2, 13063, 904, 9570, 4383},
    {"random_sched", 3, 1081, 1999, 454, 675},
};

const GridPin *
gridPin(const char *config, unsigned w)
{
    for (const GridPin &pin : kGridPins) {
        if (pin.workload == w && std::string_view(pin.config) == config)
            return &pin;
    }
    return nullptr;
}

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
    for (unsigned w = 0; w < std::size(workloads); ++w) {
        const CsrMatrix &a = workloads[w];
        const SpArchResult r = expectCorrect(cfg, a, a, c.name);
        const GridPin *pin = gridPin(c.name, w);
        ASSERT_NE(pin, nullptr) << c.name << " workload " << w;
        SCOPED_TRACE(testing::Message() << c.name << " workload " << w);
        const auto stat = [&](const char *key) {
            return static_cast<std::uint64_t>(r.stats.get(key));
        };
        EXPECT_EQ(r.cycles, pin->cycles);
        EXPECT_EQ(stat("multiplier.row_wait_stalls"), pin->rowWait);
        EXPECT_EQ(stat("multiplier.port_full_stalls"), pin->portFull);
        EXPECT_EQ(stat("merge_tree.idle_cycles"), pin->treeIdle);
        expectCountMatchesBuild(
            r, SpArchSimulator(cfg).multiply(a, a, ProductMode::Count));
    }
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
