/**
 * @file
 * Tests for the surrogate-first DSE subsystem (src/dse): workload
 * stats extraction and its sidecar cache, the batched surrogate
 * evaluator's determinism and internal consistency, and the streaming
 * Pareto filter's correctness property — a dropped point never
 * dominates a kept one, under any top-K cap.
 */

#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "dse/pareto.hh"
#include "dse/surrogate.hh"
#include "dse/workload_stats.hh"
#include "model/energy_model.hh"
#include "temp_path.hh"

namespace sparch
{
namespace
{

using dse::ParetoFilter;
using dse::ParetoPoint;
using dse::SurrogateBatch;
using dse::SurrogateEstimate;
using dse::SurrogateEvaluator;
using dse::WorkloadStats;
using dse::WorkloadStatsCache;
using dse::WorkloadStatsSoA;

// ---- workload stats ----

TEST(WorkloadStats, HandComputedExampleExtractsExactly)
{
    // A: row0 = {0, 1}, row1 = {1}, row2 = {}; B = A.
    const CsrMatrix a(3, 3, {0, 2, 3, 3}, {0, 1, 1},
                      {1.0, 2.0, 3.0});
    const WorkloadStats s = dse::computeWorkloadStats(a, a);
    EXPECT_DOUBLE_EQ(s.rows, 3.0);
    EXPECT_DOUBLE_EQ(s.colsA, 3.0);
    EXPECT_DOUBLE_EQ(s.colsB, 3.0);
    EXPECT_DOUBLE_EQ(s.nnzA, 3.0);
    EXPECT_DOUBLE_EQ(s.nnzB, 3.0);
    // M = col0(1) * row0(2) + col1(2) * row1(1) = 4, and it must
    // agree with the matrix's own multiplyFlops.
    EXPECT_DOUBLE_EQ(s.multiplies, 4.0);
    EXPECT_DOUBLE_EQ(s.multiplies,
                     static_cast<double>(a.multiplyFlops(a)));
    EXPECT_DOUBLE_EQ(s.partialColumns, 2.0); // col 2 is empty
    EXPECT_DOUBLE_EQ(s.partialCondensed, 2.0); // longest row of A
    EXPECT_DOUBLE_EQ(s.maxColMultiplies, 2.0);
    // Collision model: 9 * (1 - exp(-4/9)).
    EXPECT_NEAR(s.outputNnz, 9.0 * -std::expm1(-4.0 / 9.0), 1e-12);
}

TEST(WorkloadStats, CacheRoundTripsThroughTheSidecarFile)
{
    const std::string path =
        uniqueTempPath("dse_stats_cache.stats");

    driver::Workload w = driver::uniformWorkload(64, 64, 400, 7);
    WorkloadStats computed;
    {
        WorkloadStatsCache cache(path);
        computed = cache.obtain(w);
        EXPECT_EQ(cache.computes(), 1u);
        EXPECT_EQ(cache.hits(), 0u);
        // Second obtain of the same identity hits in memory.
        cache.obtain(w);
        EXPECT_EQ(cache.hits(), 1u);
        cache.save();
    }
    WorkloadStatsCache reloaded(path);
    const WorkloadStats *hit = reloaded.find(w.identity());
    ASSERT_NE(hit, nullptr);
    EXPECT_DOUBLE_EQ(hit->multiplies, computed.multiplies);
    EXPECT_DOUBLE_EQ(hit->outputNnz, computed.outputNnz);
    EXPECT_DOUBLE_EQ(hit->partialCondensed,
                     computed.partialCondensed);
    // obtain() now answers from disk without recomputing.
    EXPECT_EQ(reloaded.obtain(w).nnzA, computed.nnzA);
    EXPECT_EQ(reloaded.computes(), 0u);
    EXPECT_EQ(reloaded.hits(), 1u);
    std::remove(path.c_str());
}

TEST(WorkloadStats, CorruptSidecarDegradesToAMiss)
{
    const std::string path =
        uniqueTempPath("dse_stats_corrupt.stats");
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("not-the-stats-schema\n1 2 3\n", f);
        std::fclose(f);
    }
    WorkloadStatsCache cache(path);
    EXPECT_EQ(cache.size(), 0u);
    std::remove(path.c_str());
}

// ---- surrogate evaluator ----

/** Deterministic pseudo-random stats, spanning realistic magnitudes. */
WorkloadStats
syntheticStats(std::uint64_t seed)
{
    const auto unit = [&seed]() {
        seed = splitMix64(seed);
        return static_cast<double>(seed >> 11) * 0x1.0p-53;
    };
    WorkloadStats s;
    s.rows = 64.0 + std::floor(unit() * 1e5);
    s.colsA = s.rows;
    s.colsB = s.rows;
    s.nnzA = s.rows * (1.0 + std::floor(unit() * 32.0));
    s.nnzB = s.rows * (1.0 + std::floor(unit() * 32.0));
    s.multiplies = s.nnzA * (1.0 + std::floor(unit() * 64.0));
    const double rc = s.rows * s.colsB;
    s.outputNnz = rc * -std::expm1(-s.multiplies / rc);
    s.partialCondensed = 16.0 + std::floor(unit() * 500.0);
    s.partialColumns =
        s.partialCondensed + std::floor(unit() * 1e5);
    s.maxColMultiplies = s.multiplies / 4.0;
    return s;
}

TEST(Surrogate, BatchAgreesWithScalarAndIsDeterministic)
{
    WorkloadStatsSoA soa;
    std::vector<WorkloadStats> scalar;
    for (std::uint64_t i = 0; i < 256; ++i) {
        scalar.push_back(syntheticStats(i));
        soa.push(scalar.back());
    }

    SpArchConfig config;
    config.prefetchLines = 512;
    const SurrogateEvaluator evaluator(config);
    SurrogateBatch batch;
    evaluator.evaluate(soa, batch);
    ASSERT_EQ(batch.size(), scalar.size());

    // The SoA batch and the scalar path are the same math; two batch
    // evaluations are bit-identical (nothing seeds or races).
    SurrogateBatch again;
    evaluator.evaluate(soa, again);
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        const SurrogateEstimate one = evaluator.evaluateOne(scalar[i]);
        const SurrogateEstimate b = batch.get(i);
        EXPECT_DOUBLE_EQ(b.cycles, one.cycles);
        EXPECT_DOUBLE_EQ(b.energyJ, one.energyJ);
        EXPECT_DOUBLE_EQ(b.bytesTotal, one.bytesTotal);
        EXPECT_DOUBLE_EQ(b.cycles, again.cycles[i]);
        EXPECT_DOUBLE_EQ(b.energyJ, again.energyJ[i]);
        EXPECT_DOUBLE_EQ(b.bytesTotal, again.bytesTotal[i]);
    }
}

TEST(Surrogate, RespondsToTheFig17ConfigAxes)
{
    const WorkloadStats s = syntheticStats(42);

    // A larger prefetch buffer never hurts the hit rate; turning the
    // prefetcher off zeroes it and adds MatB traffic.
    SpArchConfig small;
    small.prefetchLines = 256;
    SpArchConfig large;
    large.prefetchLines = 4096;
    SpArchConfig off;
    off.rowPrefetcher = false;
    const SurrogateEvaluator se(small);
    const SurrogateEvaluator le(large);
    const SurrogateEvaluator oe(off);
    EXPECT_LE(se.evaluateOne(s).prefetchHitRate,
              le.evaluateOne(s).prefetchHitRate);
    EXPECT_DOUBLE_EQ(oe.evaluateOne(s).prefetchHitRate, 0.0);
    EXPECT_GE(oe.evaluateOne(s).bytesMatB,
              le.evaluateOne(s).bytesMatB);

    // Random scheduling pays the formula-(5) partial traffic that the
    // Huffman scheduler avoids.
    SpArchConfig random_order;
    random_order.scheduler = SchedulerKind::Random;
    const SurrogateEstimate huffman =
        SurrogateEvaluator(SpArchConfig{}).evaluateOne(s);
    const SurrogateEstimate random_est =
        SurrogateEvaluator(random_order).evaluateOne(s);
    EXPECT_DOUBLE_EQ(huffman.bytesPartialRead, 0.0);
    EXPECT_GE(random_est.bytesPartialRead, 0.0);
    EXPECT_GE(random_est.bytesTotal, huffman.bytesTotal);
}

TEST(Surrogate, EnergyUsesTheEnergyModelPricing)
{
    // The surrogate prices events with the same constants
    // EnergyModel::energy uses; all must be present and positive.
    const EventEnergiesPj pj = EnergyModel::eventEnergiesPj();
    EXPECT_GT(pj.multiply, 0.0);
    EXPECT_GT(pj.add, 0.0);
    EXPECT_GT(pj.treeElementMove, 0.0);
    EXPECT_GT(pj.fifoAccess, 0.0);
    EXPECT_GT(pj.bufferElemRead, 0.0);
    EXPECT_GT(pj.bufferLineWrite, 0.0);

    // An ideal-memory config pays no DRAM energy, so the estimate
    // drops when everything else is held fixed.
    const WorkloadStats s = syntheticStats(7);
    SpArchConfig ideal;
    ideal.memory.kind = mem::MemoryKind::Ideal;
    EXPECT_LT(SurrogateEvaluator(ideal).evaluateOne(s).energyJ,
              SurrogateEvaluator(SpArchConfig{}).evaluateOne(s)
                  .energyJ);
}

// ---- pareto filter ----

using Objectives = std::array<double, dse::kParetoObjectives>;

bool
strictlyDominates(const Objectives &a, const Objectives &b)
{
    bool strict = false;
    for (std::size_t k = 0; k < a.size(); ++k) {
        if (a[k] > b[k])
            return false;
        if (a[k] < b[k])
            strict = true;
    }
    return strict;
}

std::vector<Objectives>
syntheticObjectives(std::size_t count, std::uint64_t seed)
{
    std::vector<Objectives> points;
    points.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Objectives o;
        for (double &v : o) {
            seed = splitMix64(seed);
            // A coarse value grid on purpose: ties and exact
            // dominance chains are the hard cases.
            v = 1.0 + static_cast<double>(seed % 16);
        }
        points.push_back(o);
    }
    return points;
}

TEST(Pareto, NeverDropsAPointThatDominatesAKeptOne)
{
    for (const std::size_t keep : {std::size_t{0}, std::size_t{5},
                                   std::size_t{1}}) {
        const std::vector<Objectives> points =
            syntheticObjectives(400, 0x5eed0000 + keep);
        ParetoFilter filter;
        for (std::size_t id = 0; id < points.size(); ++id)
            filter.offer(id, points[id]);
        const std::vector<ParetoPoint> kept = filter.survivors(keep);
        ASSERT_FALSE(kept.empty());
        if (keep > 0) {
            EXPECT_LE(kept.size(), keep);
        }

        std::vector<char> is_kept(points.size(), 0);
        for (const ParetoPoint &p : kept)
            is_kept[p.id] = 1;
        for (std::size_t id = 0; id < points.size(); ++id) {
            if (is_kept[id])
                continue;
            for (const ParetoPoint &q : kept) {
                EXPECT_FALSE(strictlyDominates(points[id], q.objectives))
                    << "dropped point " << id << " dominates kept point "
                    << q.id << " (keep=" << keep << ")";
            }
        }
    }
}

TEST(Pareto, ArchiveIsDominanceFreeAndOrderDeterministic)
{
    const std::vector<Objectives> points =
        syntheticObjectives(300, 0xfeedface);
    ParetoFilter filter;
    for (std::size_t id = 0; id < points.size(); ++id)
        filter.offer(id, points[id]);
    const std::vector<ParetoPoint> frontier = filter.survivors(0);
    EXPECT_EQ(filter.offered(), points.size());
    for (const ParetoPoint &a : frontier) {
        for (const ParetoPoint &b : frontier) {
            if (a.id != b.id) {
                EXPECT_FALSE(
                    strictlyDominates(a.objectives, b.objectives));
            }
        }
    }
    // survivors() is sorted by id and stable across calls.
    for (std::size_t i = 1; i < frontier.size(); ++i)
        EXPECT_LT(frontier[i - 1].id, frontier[i].id);
    const std::vector<ParetoPoint> again = filter.survivors(0);
    ASSERT_EQ(again.size(), frontier.size());
    for (std::size_t i = 0; i < frontier.size(); ++i)
        EXPECT_EQ(again[i].id, frontier[i].id);
}

TEST(Pareto, DuplicatesResolveToEarliestAndDominatorsEvict)
{
    ParetoFilter filter;
    EXPECT_TRUE(filter.offer(0, {10.0, 10.0, 10.0}));
    // An exact duplicate is weakly dominated: the first id stays.
    EXPECT_FALSE(filter.offer(1, {10.0, 10.0, 10.0}));
    // Incomparable point joins the frontier.
    EXPECT_TRUE(filter.offer(2, {5.0, 20.0, 10.0}));
    // A near-tie that is not dominated joins too: no slack.
    EXPECT_TRUE(filter.offer(3, {10.5, 9.5, 10.0}));
    // A point dominating ids 0 and 3 evicts them and enters.
    EXPECT_TRUE(filter.offer(4, {10.0, 9.0, 10.0}));
    const std::vector<ParetoPoint> kept = filter.survivors(0);
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0].id, 2u);
    EXPECT_EQ(kept[1].id, 4u);
}

} // namespace
} // namespace sparch
