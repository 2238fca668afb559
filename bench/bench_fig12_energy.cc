/**
 * @file
 * Figure 12: energy saving of SpArch over OuterSPACE, MKL, cuSPARSE,
 * CUSP and ARM Armadillo on the 20-benchmark suite. Paper geomeans:
 * 6x / 164x / 435x / 307x / 62x.
 *
 * The 20 cycle simulations fan out across the batch driver; the
 * analytic baseline models run afterwards on the cached proxies.
 */

#include <iostream>

#include "baselines/outerspace_model.hh"
#include "baselines/platform_models.hh"
#include "bench/bench_common.hh"
#include "driver/workload.hh"
#include "model/energy_model.hh"

namespace
{

int
runBench()
{
    using namespace sparch;
    using namespace sparch::bench;

    const std::uint64_t target = targetNnz();
    const EnergyModel model;
    TablePrinter table("Figure 12: energy saving of SpArch over "
                       "baselines (C = A^2, proxy matrices)");
    table.header({"matrix", "SpArch uJ", "vs OuterSPACE", "vs MKL",
                  "vs cuSPARSE", "vs CUSP", "vs Armadillo"});

    driver::BatchRunner runner = makeRunner();
    std::vector<driver::Workload> workloads;
    for (const auto &spec : benchmarkSuite()) {
        workloads.push_back(driver::suiteWorkload(spec.name, target));
        runner.add("table-I", SpArchConfig{}, workloads.back());
    }
    const std::vector<driver::BatchRecord> records =
        bench::runBatch(runner);
    maybeWriteCsv(records);

    std::vector<double> e_outer, e_mkl, e_cusparse, e_cusp, e_arm;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        // The workload matrix is still cached from the batch run.
        const CsrMatrix &a = workloads[i].left();
        const SpArchResult &sparch = records[i].sim;
        const double sparch_j = model.energy(sparch).total();

        auto saving = [&](const BaselineResult &b) {
            return b.energyJ / sparch_j;
        };
        e_outer.push_back(saving(outerspaceModel(a, a)));
        e_mkl.push_back(saving(mklProxy(a, a)));
        e_cusparse.push_back(saving(cusparseProxy(a, a)));
        e_cusp.push_back(saving(cuspProxy(a, a)));
        e_arm.push_back(saving(armadilloProxy(a, a)));

        table.row({workloads[i].name(),
                   TablePrinter::num(sparch_j * 1e6),
                   TablePrinter::num(e_outer.back()),
                   TablePrinter::num(e_mkl.back()),
                   TablePrinter::num(e_cusparse.back()),
                   TablePrinter::num(e_cusp.back()),
                   TablePrinter::num(e_arm.back())});
    }
    table.row({"GeoMean (paper: 6/164/435/307/62)", "",
               TablePrinter::num(geoMean(e_outer)),
               TablePrinter::num(geoMean(e_mkl)),
               TablePrinter::num(geoMean(e_cusparse)),
               TablePrinter::num(geoMean(e_cusp)),
               TablePrinter::num(geoMean(e_arm))});
    table.print(std::cout);
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
