/**
 * @file
 * Tests for the analytic traffic model (formulas (2)-(7)), the
 * energy/area model (Tables II/III, Fig. 13), the roofline (Fig. 15),
 * the OuterSPACE baseline, the platform proxies, and the benchmark
 * registry.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "baselines/benchmarks.hh"
#include "baselines/outerspace_model.hh"
#include "baselines/platform_models.hh"
#include "common/logging.hh"
#include "core/analytic_model.hh"
#include "core/sparch_simulator.hh"
#include "matrix/generators.hh"
#include "matrix/reference_spgemm.hh"
#include "model/energy_model.hh"
#include "model/roofline.hh"

namespace sparch
{
namespace
{

TEST(AnalyticModel, ApproximationTracksExactSum)
{
    // Formula (7) vs formula (5): the log approximation is close for
    // large t.
    const double exact = rereadFactorExact(140000, 64);
    const double approx = rereadFactorApprox(140000, 64);
    // The log approximation drops the Euler-Mascheroni constant, so
    // it undershoots the exact harmonic sum by ~0.58.
    EXPECT_NEAR(exact, approx, 0.7);
    // Paper: ln(140000/63) ~ 7.7, minus 1 for the first round ~ 6.7.
    EXPECT_NEAR(approx - 1.0, 6.7, 0.3);
}

TEST(AnalyticModel, NoRereadsWhenEverythingFitsOneRound)
{
    EXPECT_DOUBLE_EQ(rereadFactorExact(64, 64), 0.0);
    EXPECT_DOUBLE_EQ(rereadFactorApprox(10, 64), 0.0);
}

TEST(AnalyticModel, RereadFactorGrowsWithPartials)
{
    EXPECT_LT(rereadFactorExact(1000, 64),
              rereadFactorExact(100000, 64));
    EXPECT_LT(rereadFactorExact(100000, 64),
              rereadFactorExact(100000, 4));
}

TEST(AnalyticModel, SectionIIICTrafficChainReproduced)
{
    // The paper's running example: N = 140000 columns, w = 64, output
    // ~ 0.5M, hit rate 62%. Expected chain: 13.9M -> 2.5M -> 1.5M ->
    // 0.88M elements, vs OuterSPACE's 2.5M.
    AnalyticInputs in;
    in.numPartialMatrices = 140000;
    in.mergeWays = 64;
    in.multiplies = 1.0;
    in.outputFraction = 0.5;
    in.prefetchHitRate = 0.62;
    const AnalyticTraffic t = analyzeTraffic(in);
    EXPECT_NEAR(t.outerspace, 2.5, 0.01);
    EXPECT_NEAR(t.pipelineOnly, 13.9, 0.8);
    EXPECT_NEAR(t.withCondensing, 2.5, 0.3);
    EXPECT_NEAR(t.withHuffman, 1.5, 0.01);
    EXPECT_NEAR(t.withPrefetcher, 0.88, 0.01);
    // The ordering that drives Fig. 16.
    EXPECT_GT(t.pipelineOnly, t.outerspace);
    EXPECT_GT(t.withCondensing, t.withHuffman);
    EXPECT_GT(t.withHuffman, t.withPrefetcher);
}

TEST(EnergyModel, DefaultAreaMatchesTableII)
{
    const EnergyModel model;
    const AreaBreakdown a = model.area();
    EXPECT_NEAR(a.total(), 28.5, 0.1); // Table II: 28.49 mm^2
    EXPECT_NEAR(a.mergeTree, 17.27, 0.01);
    EXPECT_NEAR(a.rowPrefetcher, 5.80, 0.01);
}

TEST(EnergyModel, DefaultPowerMatchesFig13)
{
    const EnergyModel model;
    const PowerBreakdown p = model.typicalPower();
    EXPECT_NEAR(p.mergeTree, 4.74, 0.01);
    EXPECT_NEAR(p.dram, 2.24, 0.01);
    // Merge tree dominates (55.4% of total in Fig. 13b).
    EXPECT_GT(p.mergeTree / p.total(), 0.5);
}

TEST(EnergyModel, AreaScalesWithStructures)
{
    SpArchConfig small;
    small.mergeTree.layers = 3;
    small.prefetchLines = 256;
    const EnergyModel def, shrunk(small);
    EXPECT_LT(shrunk.area().mergeTree, def.area().mergeTree);
    EXPECT_LT(shrunk.area().rowPrefetcher,
              def.area().rowPrefetcher);
}

TEST(EnergyModel, MergeTreeAreaPinnedPerMergerWidth)
{
    // Widths 1-64 (bench_fig17_dse sweeps 1/2/4/8/16) cover both the
    // flat w x w comparator count and the hierarchical one (4 | w,
    // w >= 8). No CSV carries area, so only this pins the comparator
    // counts; the values must stay bit-identical.
    constexpr double kMergeTreeMm2[64] = {
        6.9889531250000001, 7.2318125000000002, 7.6365781249999998,
        8.2032500000000006, 8.9318281250000009, 9.8223124999999989,
        10.874703124999998, 11.1175625, 13.465203125,
        15.0033125, 16.703328124999999, 14.112828124999998,
        20.589078125, 22.774812499999999, 25.122453124999996,
        17.27, 30.303453125000001, 33.136812500000005,
        36.132078125, 20.589078125, 42.608328124999993,
        46.089312499999991, 49.732203124999991, 24.070062499999995,
        57.503703124999994, 61.632312499999991, 65.922828124999995,
        27.712953124999995, 74.989578124999994, 79.76581250000001,
        84.703953125000012, 31.517750000000003, 95.065953125000007,
        100.48981250000001, 106.07557812500001, 35.484453125000002,
        117.732828125, 123.80431249999999, 130.03770312500001,
        39.613062499999991, 142.99020312499999, 149.70931249999998,
        156.59032812499998, 43.903578124999996, 170.83807812500001,
        178.2048125, 185.73345312499998, 48.355999999999995,
        201.27645312499999, 209.29081249999999, 217.467078125,
        52.970328124999995, 234.30532812499999, 242.96731249999999,
        251.79120312500001, 57.746562499999996, 269.92470312500001,
        279.23431249999999, 288.70582812499998, 62.684703124999992,
        308.13457812499996, 318.0918125, 328.210953125,
        67.784749999999988,
    };
    for (unsigned w = 1; w <= 64; ++w) {
        SpArchConfig cfg;
        cfg.mergeTree.mergerWidth = w;
        EXPECT_EQ(EnergyModel(cfg).area().mergeTree, kMergeTreeMm2[w - 1])
            << "mergerWidth " << w;
    }
}

TEST(EnergyModel, EnergyFollowsSimulatedWork)
{
    const CsrMatrix a = generateUniform(300, 300, 2400, 5);
    SpArchSimulator sim;
    const SpArchResult r = sim.multiply(a, a);
    const EnergyModel model;
    const EnergyBreakdown e = model.energy(r);
    EXPECT_GT(e.computationJ, 0.0);
    EXPECT_GT(e.sramJ, 0.0);
    EXPECT_GT(e.dramJ, 0.0);
    // Table III: SpArch lands at ~0.9 nJ/FLOP overall; our synthetic
    // small matrices land in the same decade.
    const double per_flop = e.perFlopNj(r.flops);
    EXPECT_GT(per_flop, 0.05);
    EXPECT_LT(per_flop, 10.0);
}

TEST(EnergyModel, DramEnergyPerByteFromPaperFigure)
{
    // 42.6 GB/s/W -> ~23.5 pJ/B.
    EXPECT_NEAR(EnergyModel::dramEnergyPerByte() * 1e12, 23.5, 0.1);
}

TEST(Roofline, AttainableIsMinOfRoofs)
{
    Roofline roof;
    EXPECT_DOUBLE_EQ(roof.attainable(0.1), 12.8);  // bw bound
    EXPECT_DOUBLE_EQ(roof.attainable(10.0), 32.0); // compute bound
    // Paper: roof at OI 0.19 is 0.19 * 128 = 24.3 ~ "23.9 GFLOPS".
    EXPECT_NEAR(roof.attainable(0.19), 24.3, 0.5);
}

TEST(Roofline, TheoreticalIntensityNearPaperValue)
{
    // The paper computes 0.19 Flops/Byte on its dataset; a structured
    // synthetic workload should land in the same regime (0.05..0.5).
    const CsrMatrix a = generateBanded(2000, 12, 8.0, 6);
    SpgemmCounts counts;
    spgemmDenseAccumulator(a, a, &counts);
    const double oi = theoreticalIntensity(a, a, counts.outputNnz);
    EXPECT_GT(oi, 0.05);
    EXPECT_LT(oi, 0.5);
}

TEST(OuterSpace, TrafficDominatedByPartialMatrices)
{
    const CsrMatrix a = generateUniform(400, 400, 3200, 7);
    SpgemmCounts counts;
    spgemmDenseAccumulator(a, a, &counts);
    const Bytes traffic = outerspaceTraffic(a, a, counts.outputNnz);
    // Partial write+read = 2M elements dwarfs inputs.
    EXPECT_GT(traffic, 2 * counts.multiplies * bytesPerElement);
    const BaselineResult r = outerspaceModel(a, a);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_EQ(r.flops, 2 * counts.multiplies);
    EXPECT_NEAR(r.energyJ,
                4.95e-9 * static_cast<double>(r.flops), 1e-12);
}

TEST(OuterSpace, SpArchBeatsItOnTimeAndEnergy)
{
    // The headline comparison at benchmark scale: SpArch should win
    // on wall clock and energy for a power-law workload.
    const CsrMatrix a = generateBenchmark(
        findBenchmark("wiki-Vote"), 0.25, 3);
    SpArchSimulator sim;
    const SpArchResult sparch = sim.multiply(a, a);
    const BaselineResult outer = outerspaceModel(a, a);
    EXPECT_LT(sparch.seconds, outer.seconds);
    const EnergyModel model;
    EXPECT_LT(model.energy(sparch).total(), outer.energyJ);
}

TEST(OuterSpace, RebasesOntoMemoryBackends)
{
    // Default HBM: identical to the published configuration.
    const mem::MemoryConfig hbm{};
    const OuterSpaceConfig on_hbm = outerspaceConfigFor(hbm);
    EXPECT_DOUBLE_EQ(on_hbm.bandwidthGBs,
                     OuterSpaceConfig{}.bandwidthGBs);
    EXPECT_DOUBLE_EQ(on_hbm.energyPerFlopNj,
                     OuterSpaceConfig{}.energyPerFlopNj);

    // DDR4: a quarter of the bandwidth, costlier per FLOP.
    mem::MemoryConfig ddr4;
    ddr4.kind = mem::MemoryKind::Ddr4;
    const OuterSpaceConfig on_ddr4 = outerspaceConfigFor(ddr4);
    EXPECT_DOUBLE_EQ(on_ddr4.bandwidthGBs, 32.0);
    EXPECT_GT(on_ddr4.energyPerFlopNj, on_hbm.energyPerFlopNj);

    // Ideal has no finite peak: bandwidth is left at the published
    // figure, and the DRAM energy share drops out.
    mem::MemoryConfig ideal;
    ideal.kind = mem::MemoryKind::Ideal;
    const OuterSpaceConfig on_ideal = outerspaceConfigFor(ideal);
    EXPECT_DOUBLE_EQ(on_ideal.bandwidthGBs,
                     OuterSpaceConfig{}.bandwidthGBs);
    EXPECT_LT(on_ideal.energyPerFlopNj, on_hbm.energyPerFlopNj);

    // A slower memory makes the traffic-dominated baseline slower.
    const CsrMatrix a = generateUniform(300, 300, 2500, 9);
    EXPECT_GT(outerspaceModel(a, a, on_ddr4).seconds,
              outerspaceModel(a, a, on_hbm).seconds);
}

TEST(PlatformModels, AllProxiesProduceSaneResults)
{
    const CsrMatrix a = generateUniform(250, 250, 2000, 8);
    const BaselineResult mkl = mklProxy(a, a);
    const BaselineResult cusparse = cusparseProxy(a, a);
    const BaselineResult cusp = cuspProxy(a, a);
    const BaselineResult arm = armadilloProxy(a, a);
    for (const auto &r : {mkl, cusparse, cusp, arm}) {
        EXPECT_GT(r.seconds, 0.0);
        EXPECT_GT(r.flops, 0u);
        EXPECT_GT(r.energyJ, 0.0);
    }
    // The mobile CPU is the slowest platform by far.
    EXPECT_GT(arm.seconds, mkl.seconds);
}

TEST(Benchmarks, SuiteHasTheTwentyPaperMatrices)
{
    const auto &suite = benchmarkSuite();
    ASSERT_EQ(suite.size(), 20u);
    EXPECT_EQ(suite.front().name, "2cubes_sphere");
    EXPECT_EQ(suite.back().name, "wiki-Vote");
    EXPECT_EQ(findBenchmark("web-Google").rows, 916428u);
    EXPECT_THROW(findBenchmark("nonexistent"), FatalError);
}

TEST(Benchmarks, ProxiesPreserveAverageDegree)
{
    for (const char *name : {"poisson3Da", "wiki-Vote", "scircuit"}) {
        const BenchmarkSpec &spec = findBenchmark(name);
        const CsrMatrix m = generateBenchmark(spec, 0.2, 1);
        const double want_degree =
            static_cast<double>(spec.nnz) / spec.rows;
        const double got_degree =
            static_cast<double>(m.nnz()) / m.rows();
        EXPECT_GT(got_degree, 0.4 * want_degree) << name;
        EXPECT_LT(got_degree, 2.5 * want_degree) << name;
    }
}

TEST(Benchmarks, ScaleOutOfRangeIsFatal)
{
    const BenchmarkSpec &spec = findBenchmark("facebook");
    EXPECT_THROW(generateBenchmark(spec, 0.0, 1), FatalError);
    EXPECT_THROW(generateBenchmark(spec, 1.5, 1), FatalError);
}

TEST(Benchmarks, DefaultScaleTargetsNnz)
{
    const BenchmarkSpec &big = findBenchmark("cit-Patents");
    EXPECT_LT(defaultScale(big, 60000), 0.01);
    BenchmarkSpec tiny = big;
    tiny.nnz = 1000;
    EXPECT_DOUBLE_EQ(defaultScale(tiny, 60000), 1.0);
}

} // namespace
} // namespace sparch
