/**
 * @file
 * Figure 14: performance on synthesized rMAT matrices vs the MKL
 * proxy, sweeping vertex count (5k..80k) and edge factor (x4..x32) so
 * density spans ~6e-3 to ~5e-5. The paper's claims to reproduce: (1)
 * SpArch is ~10x faster throughout, and (2) SpArch degrades only
 * ~2.7x from the densest to the sparsest point while MKL degrades
 * ~5.9x.
 *
 * Vertex counts are scaled by SPARCH_BENCH_RMAT_DIV (default 8) to
 * keep cycle simulation tractable; density, the x-axis of the paper's
 * figure, is preserved by scaling the comparison within each edge
 * factor.
 *
 * The 19 cycle simulations run in parallel through the batch driver
 * (SPARCH_BENCH_THREADS workers); the analytic MKL proxy is evaluated
 * afterwards on the cached workload matrices.
 *
 * Shard-scaling mode: setting SPARCH_BENCH_SHARDS to a comma-
 * separated list of shard counts (e.g. "1,2,4,8") appends a table
 * that re-runs the densest and sparsest R-MAT points through
 * ShardedSimulator at each count, comparing critical-path cycles,
 * DRAM traffic and load balance against the monolithic run.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>

#include "baselines/platform_models.hh"
#include "bench/bench_common.hh"
#include "driver/workload.hh"
#include "matrix/rmat.hh"

namespace
{

int
runBench()
{
    using namespace sparch;
    using namespace sparch::bench;

    // The smallest points have 5k vertices; a larger divisor scales
    // them to none.
    constexpr std::uint64_t kMaxDiv = 5000;
    const std::uint64_t div = envU64("SPARCH_BENCH_RMAT_DIV", 8);
    if (div == 0 || div > kMaxDiv) {
        fatal("SPARCH_BENCH_RMAT_DIV=", div, ": need a divisor in 1..",
              kMaxDiv, " (the 5k-vertex points must keep a vertex)");
    }

    TablePrinter table("Figure 14: FLOPS on rMAT benchmarks "
                       "(vertex counts / " +
                       std::to_string(div) + ")");
    table.header({"matrix", "density", "SpArch GFLOP/s",
                  "MKL-proxy GFLOP/s", "speedup"});

    struct Point
    {
        unsigned kilo_vertices;
        unsigned edge_factor;
    };
    // The paper's 19 points, ordered as in Fig. 14 (by density).
    const Point points[] = {
        {5, 32},  {5, 16},  {10, 32}, {5, 8},   {10, 16},
        {20, 32}, {5, 4},   {10, 8},  {20, 16}, {40, 32},
        {10, 4},  {20, 8},  {40, 16}, {20, 4},  {40, 8},
        {80, 16}, {40, 4},  {80, 8},  {80, 4}};

    driver::BatchRunner runner = makeRunner();
    std::vector<driver::Workload> workloads;
    for (const Point &pt : points) {
        const auto vertices =
            static_cast<Index>(pt.kilo_vertices * 1000u / div);
        workloads.push_back(
            driver::rmatWorkload(vertices, pt.edge_factor, 1234));
        runner.add("table-I", SpArchConfig{}, workloads.back());
    }
    const std::vector<driver::BatchRecord> records =
        bench::runBatch(runner);

    std::vector<double> ours, mkls;
    double first_ours = 0.0, last_ours = 0.0;
    double first_mkl = 0.0, last_mkl = 0.0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const Point &pt = points[i];
        // The workload matrix is still cached from the batch run.
        const CsrMatrix &a = workloads[i].left();
        const double density =
            static_cast<double>(a.nnz()) /
            (static_cast<double>(a.rows()) * a.cols());

        const SpArchResult &sparch = records[i].sim;
        const BaselineResult mkl = mklProxy(a, a);
        ours.push_back(sparch.gflops);
        mkls.push_back(mkl.gflops);
        if (first_ours == 0.0) {
            first_ours = sparch.gflops;
            first_mkl = mkl.gflops;
        }
        last_ours = sparch.gflops;
        last_mkl = mkl.gflops;

        table.row({"rmat-" + std::to_string(pt.kilo_vertices) + "k-x" +
                       std::to_string(pt.edge_factor),
                   TablePrinter::sci(density, 1),
                   TablePrinter::num(sparch.gflops),
                   TablePrinter::num(mkl.gflops, 3),
                   TablePrinter::num(sparch.gflops / mkl.gflops, 1)});
    }
    table.row({"GeoMean", "", TablePrinter::num(geoMean(ours)),
               TablePrinter::num(geoMean(mkls), 3),
               TablePrinter::num(geoMean(ours) / geoMean(mkls), 1)});
    table.row({"Degradation dense->sparse (paper: 2.7x vs 5.9x)", "",
               TablePrinter::num(first_ours / last_ours, 1) + "x",
               TablePrinter::num(first_mkl / last_mkl, 1) + "x", ""});
    table.print(std::cout);

    // ---- shard-scaling mode (SPARCH_BENCH_SHARDS=1,2,4,...) ----
    const char *shards_env = std::getenv("SPARCH_BENCH_SHARDS");
    if (!shards_env)
        return 0;
    // Every token must be a positive count: a silently dropped typo
    // would print a scaling table without the point that was asked for.
    std::vector<unsigned> shard_counts;
    std::istringstream shard_list(shards_env);
    for (std::string tok; std::getline(shard_list, tok, ',');) {
        const std::uint64_t n = parseU64("SPARCH_BENCH_SHARDS", tok);
        if (n == 0 || n > std::numeric_limits<unsigned>::max())
            fatal("SPARCH_BENCH_SHARDS: '", tok,
                  "' is not a positive shard count");
        shard_counts.push_back(static_cast<unsigned>(n));
    }
    if (shard_counts.empty())
        fatal("SPARCH_BENCH_SHARDS is set but empty; give shard counts");
    // The monolithic point anchors every speedup column.
    if (std::find(shard_counts.begin(), shard_counts.end(), 1u) ==
        shard_counts.end()) {
        shard_counts.insert(shard_counts.begin(), 1u);
    }

    TablePrinter scaling("Shard scaling: row-block sharded vs "
                         "monolithic (nnz-balanced)");
    scaling.header({"matrix", "shards", "cycles", "speedup",
                    "DRAM MB", "imbalance"});
    driver::BatchRunner shard_runner = makeRunner();
    // Densest and sparsest points: sharding helps most where per-
    // shard merge plans stay shallow, so show both extremes.
    const std::vector<driver::Workload> extremes = {workloads.front(),
                                                    workloads.back()};
    shard_runner.addShardSweep({{"table-I", SpArchConfig{}}}, extremes,
                               shard_counts);
    const std::vector<driver::BatchRecord> shard_records =
        bench::runBatch(shard_runner);
    // Anchor each workload's speedup on its own monolithic record,
    // whatever order the shard counts were given in.
    std::map<std::string, double> mono_cycles;
    for (const driver::BatchRecord &r : shard_records) {
        if (r.shards == 1)
            mono_cycles[r.workloadName] =
                static_cast<double>(r.sim.cycles);
    }
    for (const driver::BatchRecord &r : shard_records) {
        const double mono = mono_cycles[r.workloadName];
        scaling.row(
            {r.workloadName, std::to_string(r.shards),
             std::to_string(r.sim.cycles),
             mono > 0.0
                 ? TablePrinter::num(mono / static_cast<double>(
                                                r.sim.cycles),
                                     2) + "x"
                 : "-",
             TablePrinter::num(
                 static_cast<double>(r.sim.bytesTotal) / 1e6, 3),
             // Monolithic runs carry no shard gauges.
             r.sim.stats.has("shard.nnz_imbalance")
                 ? TablePrinter::num(
                       r.sim.stats.get("shard.nnz_imbalance"), 2)
                 : "-"});
    }
    scaling.print(std::cout);
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
