/**
 * @file
 * Figure 11: speedup of SpArch over OuterSPACE, MKL, cuSPARSE, CUSP
 * and ARM Armadillo on the 20-benchmark suite (C = A^2), with the
 * geometric mean. Paper geomeans: 4.2x / 19x / 18x / 17x / 1285x.
 *
 * The 20 cycle simulations fan out across the batch driver; the
 * analytic baseline models run afterwards on the cached proxies.
 */

#include <iostream>

#include "baselines/outerspace_model.hh"
#include "baselines/platform_models.hh"
#include "bench/bench_common.hh"
#include "driver/workload.hh"

namespace
{

int
runBench()
{
    using namespace sparch;
    using namespace sparch::bench;

    const std::uint64_t target = targetNnz();
    TablePrinter table("Figure 11: speedup of SpArch over baselines "
                       "(C = A^2, proxy matrices)");
    table.header({"matrix", "SpArch GF/s", "vs OuterSPACE", "vs MKL",
                  "vs cuSPARSE", "vs CUSP", "vs Armadillo"});

    driver::BatchRunner runner = makeRunner();
    std::vector<driver::Workload> workloads;
    for (const auto &spec : benchmarkSuite()) {
        workloads.push_back(driver::suiteWorkload(spec.name, target));
        runner.add("table-I", SpArchConfig{}, workloads.back());
    }
    const std::vector<driver::BatchRecord> records =
        bench::runBatch(runner);

    std::vector<double> s_outer, s_mkl, s_cusparse, s_cusp, s_arm;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const CsrMatrix &a = workloads[i].left();
        const SpArchResult &sparch = records[i].sim;
        const BaselineResult outer = outerspaceModel(a, a);
        const BaselineResult mkl = mklProxy(a, a);
        const BaselineResult cusparse = cusparseProxy(a, a);
        const BaselineResult cusp = cuspProxy(a, a);
        const BaselineResult arm = armadilloProxy(a, a);

        auto speedup = [&](const BaselineResult &b) {
            return b.seconds / sparch.seconds;
        };
        s_outer.push_back(speedup(outer));
        s_mkl.push_back(speedup(mkl));
        s_cusparse.push_back(speedup(cusparse));
        s_cusp.push_back(speedup(cusp));
        s_arm.push_back(speedup(arm));

        table.row({workloads[i].name(),
                   TablePrinter::num(sparch.gflops),
                   TablePrinter::num(s_outer.back()),
                   TablePrinter::num(s_mkl.back()),
                   TablePrinter::num(s_cusparse.back()),
                   TablePrinter::num(s_cusp.back()),
                   TablePrinter::num(s_arm.back(), 0)});
    }
    table.row({"GeoMean (paper: 4.2/19/18/17/1285)", "",
               TablePrinter::num(geoMean(s_outer)),
               TablePrinter::num(geoMean(s_mkl)),
               TablePrinter::num(geoMean(s_cusparse)),
               TablePrinter::num(geoMean(s_cusp)),
               TablePrinter::num(geoMean(s_arm), 0)});
    table.print(std::cout);
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
