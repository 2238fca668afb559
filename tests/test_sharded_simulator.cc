/**
 * @file
 * Tests for the sharded SpGEMM driver: ShardPlan balancing (including
 * the nnz-balanced edge cases), and the load-bearing equivalence
 * between a sharded run and the monolithic SpArchSimulator.
 *
 * Equivalence contract (see driver/sharded_simulator.hh): the stacked
 * product always reproduces the monolithic sparsity structure exactly;
 * values are bit-identical whenever no output element sums more than
 * two partial products, and agree to ulp-level tolerance otherwise
 * (the simulated adder slices fold equal-coordinate runs over
 * timing-dependent windows, so floating-point association differs
 * between operand shapes — for the monolithic simulator vs reference
 * SpGEMM just as for shard vs monolithic). Operation counts partition
 * exactly; DRAM byte counters follow the documented partial-merge
 * overhead model; the merged statistics are the plain sum of the
 * shards' plus the shard.* gauges.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/sparch_simulator.hh"
#include "driver/sharded_simulator.hh"
#include "expect_measurements.hh"
#include "matrix/generators.hh"
#include "matrix/reference_spgemm.hh"
#include "matrix/rmat.hh"

namespace sparch
{
namespace
{

using driver::ShardedResult;
using driver::ShardedSimulator;
using driver::ShardPlan;
using driver::ShardPolicy;
using driver::ShardProducts;
using driver::ShardRange;

constexpr ShardPolicy kByRows = ShardPolicy::RowBalanced;
constexpr ShardPolicy kByNnz = ShardPolicy::NnzBalanced;

/** The plan must be a contiguous, disjoint cover of [0, rows). */
void
expectContiguousCover(const ShardPlan &plan, const CsrMatrix &a)
{
    Index covered = 0;
    std::size_t nnz = 0;
    for (const ShardRange &r : plan.ranges()) {
        EXPECT_EQ(r.begin, covered);
        EXPECT_GT(r.end, r.begin) << "empty shard";
        EXPECT_EQ(r.nnz, static_cast<std::size_t>(
                             a.rowPtr()[r.end] - a.rowPtr()[r.begin]));
        covered = r.end;
        nnz += r.nnz;
    }
    EXPECT_EQ(covered, a.rows());
    EXPECT_EQ(nnz, a.nnz());
}

// ----------------------------------------------------------- ShardPlan

TEST(ShardPlan, RowBalancedSplitsEvenly)
{
    const CsrMatrix a = generateUniform(100, 100, 600, 1);
    const ShardPlan plan = ShardPlan::make(kByRows, a, 4);
    ASSERT_EQ(plan.size(), 4u);
    expectContiguousCover(plan, a);
    for (const ShardRange &r : plan.ranges())
        EXPECT_EQ(r.rows(), 25u);
}

TEST(ShardPlan, EmptyMatrixYieldsEmptyPlan)
{
    const CsrMatrix none(0, 0);
    EXPECT_TRUE(ShardPlan::make(kByNnz, none, 4).empty());
    EXPECT_TRUE(ShardPlan::make(kByRows, none, 4).empty());
    EXPECT_DOUBLE_EQ(ShardPlan::make(kByNnz, none, 4).nnzImbalance(),
                     1.0);
}

TEST(ShardPlan, SingleRowGetsSingleShard)
{
    const CsrMatrix a = generateUniform(1, 64, 20, 2);
    const ShardPlan plan = ShardPlan::make(kByNnz, a, 8);
    ASSERT_EQ(plan.size(), 1u);
    expectContiguousCover(plan, a);
}

TEST(ShardPlan, MoreShardsThanRowsClampsToRows)
{
    const CsrMatrix a = generateUniform(3, 40, 30, 3);
    const ShardPlan plan = ShardPlan::make(kByNnz, a, 16);
    ASSERT_EQ(plan.size(), 3u);
    expectContiguousCover(plan, a); // each shard keeps >= 1 row
}

TEST(ShardPlan, ZeroShardsTreatedAsOne)
{
    const CsrMatrix a = generateUniform(10, 10, 40, 4);
    const ShardPlan plan = ShardPlan::make(kByNnz, a, 0);
    ASSERT_EQ(plan.size(), 1u);
    expectContiguousCover(plan, a);
}

TEST(ShardPlan, NnzFreeMatrixFallsBackToRowBalance)
{
    const CsrMatrix a(64, 64); // rows but no nonzeros
    const ShardPlan plan = ShardPlan::make(kByNnz, a, 4);
    ASSERT_EQ(plan.size(), 4u);
    expectContiguousCover(plan, a);
    EXPECT_DOUBLE_EQ(plan.nnzImbalance(), 1.0);
}

TEST(ShardPlan, NnzBalancedIsolatesSkewedRow)
{
    // One row holds ~90% of the nonzeros; the greedy split must give
    // it its own shard and still hand every later shard real rows.
    CooMatrix coo(64, 64);
    for (Index c = 0; c < 60; ++c)
        coo.add(0, c, 1.0);
    for (Index r = 1; r < 64; ++r)
        coo.add(r, r % 64, 1.0);
    coo.canonicalize();
    const CsrMatrix a = CsrMatrix::fromCoo(coo);

    const ShardPlan plan = ShardPlan::make(kByNnz, a, 4);
    ASSERT_EQ(plan.size(), 4u);
    expectContiguousCover(plan, a);
    EXPECT_EQ(plan.ranges()[0].end, 1u) << "heavy row not isolated";
    // Re-aiming after the heavy cut keeps the rest balanced: the
    // remaining 63 unit rows split ~21 each.
    for (std::size_t s = 1; s < plan.size(); ++s)
        EXPECT_GE(plan.ranges()[s].rows(), 20u);
    // The heavy shard holds 60 of 123 nonzeros against a mean of
    // ~30.8 per shard.
    EXPECT_GT(plan.nnzImbalance(), 1.9);
}

TEST(ShardPlan, NnzBalancedBeatsRowBalanceOnSkew)
{
    // Front-loaded density: nnz-balanced shards should be closer to
    // the mean than naive row splitting.
    CooMatrix coo(80, 80);
    for (Index r = 0; r < 20; ++r)
        for (Index c = 0; c < 20; ++c)
            coo.add(r, c, 1.0);
    for (Index r = 20; r < 80; ++r)
        coo.add(r, 0, 1.0);
    coo.canonicalize();
    const CsrMatrix a = CsrMatrix::fromCoo(coo);

    const ShardPlan nnz_plan = ShardPlan::make(kByNnz, a, 4);
    const ShardPlan row_plan = ShardPlan::make(kByRows, a, 4);
    expectContiguousCover(nnz_plan, a);
    EXPECT_LT(nnz_plan.nnzImbalance(), row_plan.nnzImbalance());
    EXPECT_LT(nnz_plan.nnzImbalance(), 1.5);
}

// --------------------------------------------- sharded vs monolithic

/** Structure must match exactly; values to ulp-level tolerance. */
void
expectSameProduct(const CsrMatrix &sharded, const CsrMatrix &mono)
{
    ASSERT_EQ(sharded.rows(), mono.rows());
    ASSERT_EQ(sharded.cols(), mono.cols());
    EXPECT_EQ(sharded.rowPtr(), mono.rowPtr());
    EXPECT_EQ(sharded.colIdx(), mono.colIdx());
    EXPECT_TRUE(sharded.almostEqual(mono, 1e-12));
}

/**
 * The merged statistics are the key-wise sum of the shards' sets plus
 * the five shard.* gauges, and nothing else: no statistic is patched
 * by name after the sum.
 */
void
expectPlainSumStats(const ShardedResult &r)
{
    StatSet expect;
    Cycle max_cycles = 0;
    for (const SpArchResult &s : r.shards) {
        expect.merge(s.stats);
        max_cycles = std::max(max_cycles, s.cycles);
    }
    expect.set("shard.count", static_cast<double>(r.plan.size()));
    expect.set("shard.max_cycles", static_cast<double>(max_cycles));
    expect.set("shard.stitch_cycles", static_cast<double>(r.stitchCycles));
    expect.set("shard.stitch_bytes", static_cast<double>(r.stitchBytes));
    expect.set("shard.nnz_imbalance", r.plan.nnzImbalance());
    EXPECT_EQ(r.combined.stats.all(), expect.all());
}

/**
 * The documented merge model against a monolithic run, for workloads
 * whose plans fit one merge round (every byte stream then partitions
 * deterministically).
 */
void
expectMergeModel(const ShardedResult &r, const SpArchResult &mono)
{
    const SpArchResult &c = r.combined;
    const std::size_t k = r.plan.size();

    // Operation counts partition exactly: row blocks split the
    // paper's M = sum over nonzeros a_ik of nnz(row k of B), and the
    // total additions telescope to M - nnz(C) whatever the plan.
    EXPECT_EQ(c.multiplies, mono.multiplies);
    EXPECT_EQ(c.flops, mono.flops);
    EXPECT_EQ(c.additions, mono.additions);

    ASSERT_EQ(mono.mergeRounds, 1u) << "test workload must fit one "
                                       "merge round for exact bytes";
    for (const SpArchResult &s : r.shards)
        EXPECT_LE(s.mergeRounds, 1u);

    // Left-operand traffic partitions exactly (each element and each
    // visited row pointer is fetched once either way).
    EXPECT_EQ(c.bytesMatA, mono.bytesMatA);
    // Each extra shard emits one extra final row-pointer entry.
    EXPECT_EQ(c.bytesFinalWrite,
              mono.bytesFinalWrite + (k - 1) * bytesPerRowPtr);
    // Single-round plans spill no partials, sharded or not.
    EXPECT_EQ(c.bytesPartialRead, 0u);
    EXPECT_EQ(c.bytesPartialWrite, 0u);
    EXPECT_EQ(mono.bytesPartialWrite, 0u);
    // Shards re-read B rows their siblings also touched.
    EXPECT_GE(c.bytesMatB, mono.bytesMatB);

    // Critical path: slowest shard plus the row-pointer stitch pass.
    Cycle max_cycles = 0;
    for (const SpArchResult &s : r.shards)
        max_cycles = std::max(max_cycles, s.cycles);
    EXPECT_EQ(c.cycles, max_cycles + r.stitchCycles);
    if (k > 1) {
        EXPECT_GT(r.stitchCycles, 0u);
        Bytes rowptrs =
            static_cast<Bytes>(c.result.rows() + 1) * bytesPerRowPtr;
        for (const SpArchResult &s : r.shards)
            rowptrs += static_cast<Bytes>(s.result.rows() + 1) *
                       bytesPerRowPtr;
        EXPECT_EQ(r.stitchBytes, rowptrs);
    }

    // The merged stats are the summed counters plus the shard gauges.
    EXPECT_EQ(c.stats.get("shard.count"), static_cast<double>(k));
    EXPECT_EQ(c.stats.get("shard.max_cycles"),
              static_cast<double>(max_cycles));
    EXPECT_GE(c.stats.get("shard.nnz_imbalance"), 1.0);
    expectPlainSumStats(r);

    // Fleet model: K memories' peak over the merged cycles.
    const double fleet_peak =
        static_cast<double>(k) *
        static_cast<double>(SpArchConfig{}.memory.peakBytesPerCycle()) *
        static_cast<double>(c.cycles);
    EXPECT_DOUBLE_EQ(c.bandwidthUtilization,
                     static_cast<double>(c.bytesTotal) / fleet_peak);
    EXPECT_LE(c.bandwidthUtilization, 1.0);
}

TEST(ShardedSimulator, RmatMatchesMonolithic)
{
    const CsrMatrix a = rmatGenerate(256, 4, 99);
    const SpArchResult mono = SpArchSimulator().multiply(a, a);
    for (unsigned k : {2u, 3u, 7u}) {
        const ShardedSimulator sharded(SpArchConfig{},
                                       ShardPolicy::NnzBalanced, k);
        const ShardedResult r = sharded.multiply(a, a);
        EXPECT_EQ(r.plan.size(), k);
        expectSameProduct(r.combined.result, mono.result);
        expectMergeModel(r, mono);
    }
}

TEST(ShardedSimulator, MergedRatiosStayRatiosOnBankedDram)
{
    // Four shards streaming through four memories still read as one
    // utilization in [0, 1]. The statistics stay counts (the banked
    // backend adds dram.row_hits and dram.row_misses), so the merged
    // set is a plain sum a reader derives ratios from.
    const CsrMatrix a = rmatGenerate(512, 6, 5);
    for (const mem::MemoryKind kind :
         {mem::MemoryKind::Ddr4, mem::MemoryKind::Hbm}) {
        SCOPED_TRACE(mem::memoryKindName(kind));
        SpArchConfig cfg;
        cfg.memory.kind = kind;
        const ShardedSimulator sharded(cfg, ShardPolicy::NnzBalanced, 4);
        const ShardedResult r = sharded.multiply(a, a);
        const SpArchResult &c = r.combined;
        EXPECT_GT(c.bandwidthUtilization, 0.0);
        EXPECT_LE(c.bandwidthUtilization, 1.0);
        EXPECT_GT(c.stats.get("row_prefetcher.hits") +
                      c.stats.get("row_prefetcher.misses"),
                  0.0);
        EXPECT_EQ(c.stats.has("dram.row_hits"),
                  kind == mem::MemoryKind::Ddr4);
        expectPlainSumStats(r);
    }
}

TEST(ShardedSimulator, SkipStatisticsSumAcrossShards)
{
    // Each shard's cycle loop jumps over its own quiet spans; the
    // merged result reports the fleet's total host-side savings.
    SpArchConfig cfg;
    cfg.memory.kind = mem::MemoryKind::Ddr4;
    const CsrMatrix a = rmatGenerate(512, 6, 5);
    const ShardedSimulator sharded(cfg, ShardPolicy::NnzBalanced, 4);
    const ShardedResult r = sharded.multiply(a, a);
    double skipped = 0.0, spans = 0.0;
    for (const SpArchResult &s : r.shards) {
        skipped += s.stats.get("kernel.skipped_cycles");
        spans += s.stats.get("kernel.skip_spans");
    }
    EXPECT_GT(spans, 0.0);
    EXPECT_GT(skipped, spans);
    EXPECT_EQ(r.combined.stats.get("kernel.skipped_cycles"), skipped);
    EXPECT_EQ(r.combined.stats.get("kernel.skip_spans"), spans);
}

TEST(ShardedSimulator, BlockDiagonalMatchesMonolithic)
{
    const CsrMatrix a = generateBlockDiagonal(200, 25, 6.0, 0.8, 7);
    const SpArchResult mono = SpArchSimulator().multiply(a, a);
    for (unsigned k : {2u, 5u}) {
        const ShardedSimulator sharded(SpArchConfig{},
                                       ShardPolicy::RowBalanced, k);
        const ShardedResult r = sharded.multiply(a, a);
        expectSameProduct(r.combined.result, mono.result);
        expectMergeModel(r, mono);
    }
}

TEST(ShardedSimulator, BitIdenticalWhenNoReassociation)
{
    // Upper bidiagonal A: every element of C = A^2 sums at most two
    // partial products, so one addition at most — floating-point
    // association cannot differ and the sharded product must be
    // bit-identical to the monolithic one.
    const Index n = 300;
    CooMatrix coo(n, n);
    for (Index i = 0; i < n; ++i) {
        coo.add(i, i, 1.0 + 0.013 * i);
        if (i + 1 < n)
            coo.add(i, i + 1, 0.7 + 0.029 * i);
    }
    coo.canonicalize();
    const CsrMatrix a = CsrMatrix::fromCoo(coo);

    const SpArchResult mono = SpArchSimulator().multiply(a, a);
    for (unsigned k : {2u, 4u, 9u}) {
        const ShardedSimulator sharded(SpArchConfig{},
                                       ShardPolicy::NnzBalanced, k);
        const ShardedResult r = sharded.multiply(a, a);
        EXPECT_TRUE(r.combined.result == mono.result)
            << "sharded product not bit-identical at K=" << k;
    }
}

TEST(ShardedSimulator, ParallelRunBitIdenticalToSerial)
{
    const CsrMatrix a = rmatGenerate(200, 6, 31);
    const ShardedSimulator serial(SpArchConfig{},
                                  ShardPolicy::NnzBalanced, 6,
                                  /*threads=*/1);
    const ShardedSimulator parallel(SpArchConfig{},
                                    ShardPolicy::NnzBalanced, 6,
                                    /*threads=*/4);
    const ShardedResult s = serial.multiply(a, a);
    const ShardedResult p = parallel.multiply(a, a);
    EXPECT_TRUE(s.combined.result == p.combined.result);
    EXPECT_EQ(s.combined.cycles, p.combined.cycles);
    EXPECT_EQ(s.combined.bytesTotal, p.combined.bytesTotal);
    EXPECT_EQ(s.stitchCycles, p.stitchCycles);
    ASSERT_EQ(s.shards.size(), p.shards.size());
    for (std::size_t i = 0; i < s.shards.size(); ++i)
        EXPECT_TRUE(s.shards[i].result == p.shards[i].result);
}

TEST(ShardedSimulator, ProductsDoNotMoveAMeasurement)
{
    // Stacked, blocks only, or counts only: every merged and per-shard
    // figure is the same, at any shard and thread count.
    const CsrMatrix a = rmatGenerate(200, 6, 31);
    SpArchConfig cfg;
    cfg.mergeTree.layers = 3; // 8-way tree: multi-round shards
    for (unsigned k : {1u, 3u}) {
        for (unsigned threads : {1u, 2u}) {
            SCOPED_TRACE("shards=" + std::to_string(k) +
                         " threads=" + std::to_string(threads));
            const ShardedSimulator sim(cfg, ShardPolicy::NnzBalanced, k,
                                       threads);
            const ShardedResult stacked = sim.multiply(a, a);
            const ShardedResult blocks =
                sim.multiply(a, a, ShardProducts::Blocks);
            const ShardedResult counted =
                sim.multiply(a, a, ShardProducts::None);
            ASSERT_EQ(stacked.shards.size(), k);
            EXPECT_TRUE(std::any_of(
                stacked.shards.begin(), stacked.shards.end(),
                [](const SpArchResult &s) {
                    return s.stats.get("plan.rounds") > 1.0;
                }));

            expectCountMatchesBuild(stacked.combined, blocks.combined);
            expectCountMatchesBuild(stacked.combined, counted.combined);
            for (const ShardedResult *r : {&blocks, &counted}) {
                EXPECT_EQ(r->stitchCycles, stacked.stitchCycles);
                EXPECT_EQ(r->stitchBytes, stacked.stitchBytes);
                ASSERT_EQ(r->shards.size(), k);
            }
            for (std::size_t i = 0; i < k; ++i) {
                expectSameMeasurements(stacked.shards[i],
                                       blocks.shards[i]);
                EXPECT_TRUE(blocks.shards[i].result ==
                            stacked.shards[i].result);
                expectCountMatchesBuild(stacked.shards[i],
                                        counted.shards[i]);
            }
        }
    }
}

TEST(ShardedSimulator, MatchesReferenceSpgemm)
{
    const CsrMatrix a = generateBlockDiagonal(150, 15, 5.0, 0.7, 21);
    const ShardedSimulator sharded(SpArchConfig{},
                                   ShardPolicy::NnzBalanced, 4, 2);
    const ShardedResult r = sharded.multiply(a, a);
    const CsrMatrix expect = spgemmDenseAccumulator(a, a);
    EXPECT_TRUE(r.combined.result.almostEqual(expect));
}

TEST(ShardedSimulator, ExplicitPlanForWrongMatrixRejected)
{
    const CsrMatrix a = generateUniform(100, 100, 500, 41);
    const CsrMatrix other = generateUniform(60, 100, 300, 42);
    const ShardedSimulator sharded(SpArchConfig{}, kByNnz, 4);
    EXPECT_THROW(sharded.multiply(a, a, ShardPlan::make(kByRows, other, 4)),
                 FatalError);
}

TEST(ShardedSimulator, EmptyOperandsProduceEmptyProduct)
{
    const ShardedSimulator sharded(SpArchConfig{}, kByNnz, 4);
    // No rows at all: empty plan, empty product.
    const ShardedResult none =
        sharded.multiply(CsrMatrix(0, 0), CsrMatrix(0, 50));
    EXPECT_TRUE(none.plan.empty());
    EXPECT_EQ(none.combined.result.rows(), 0u);
    EXPECT_EQ(none.combined.result.cols(), 50u);
    // Rows but no nonzeros: shards all simulate trivially.
    const ShardedResult zero =
        sharded.multiply(CsrMatrix(40, 40), CsrMatrix(40, 40));
    EXPECT_EQ(zero.combined.result.rows(), 40u);
    EXPECT_EQ(zero.combined.result.nnz(), 0u);
    EXPECT_EQ(zero.combined.cycles, zero.stitchCycles);
}

TEST(ShardedSimulator, DimensionMismatchRejected)
{
    const ShardedSimulator sharded(SpArchConfig{}, kByNnz, 4);
    EXPECT_THROW(
        sharded.multiply(CsrMatrix(4, 5), CsrMatrix(6, 4)),
        FatalError);
}

} // namespace
} // namespace sparch
