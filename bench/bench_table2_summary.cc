/**
 * @file
 * Table II: SpArch vs OuterSPACE on area, power and memory bandwidth
 * utilization. Paper: 28.49 mm^2 vs 87 mm^2, 9.26 W vs 12.39 W,
 * 68.6% vs 48.3% bandwidth utilization at 128 GB/s HBM.
 *
 * The 20 utilization measurements fan out across the batch driver.
 */

#include <iostream>

#include "baselines/outerspace_model.hh"
#include "bench/bench_common.hh"
#include "common/table_printer.hh"
#include "driver/workload.hh"
#include "model/energy_model.hh"

namespace
{

int
runBench()
{
    using namespace sparch;
    using namespace sparch::bench;

    // Measure bandwidth utilization over the benchmark suite.
    const std::uint64_t target = targetNnz(40000);
    driver::BatchRunner runner = makeRunner();
    for (const auto &spec : benchmarkSuite()) {
        runner.add("table-I", SpArchConfig{},
                   driver::suiteWorkload(spec.name, target));
    }
    const std::vector<driver::BatchRecord> records =
        bench::runBatch(runner);
    double util_sum = 0.0;
    for (const driver::BatchRecord &r : records)
        util_sum += r.sim.bandwidthUtilization;
    const double measured_util =
        util_sum / static_cast<double>(records.size());

    const EnergyModel model;
    TablePrinter table("Table II: comparison with OuterSPACE");
    table.header({"metric", "SpArch (this repo)", "SpArch (paper)",
                  "OuterSPACE (paper)"});
    table.row({"Technology", "40nm (modeled)", "40nm", "32nm"});
    table.row({"Area",
               TablePrinter::num(model.area().total()) + " mm^2",
               "28.49 mm^2", "87 mm^2"});
    table.row({"Power",
               TablePrinter::num(model.typicalPower().total()) + " W",
               "9.26 W", "12.39 W"});
    table.row({"DRAM", "HBM@128GB/s", "HBM@128GB/s", "HBM@128GB/s"});
    table.row({"Bandwidth Utilization",
               TablePrinter::num(100.0 * measured_util, 1) + " %",
               "68.6 %", "48.3 %"});
    table.print(std::cout);
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
