/**
 * @file
 * Figure 13: area and power breakdown per module at the Table I
 * configuration. Paper: merge tree 60.6% of area and 55.4% of power;
 * HBM 26.2% of power.
 */

#include <iostream>

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

    const EnergyModel model;
    const AreaBreakdown a = model.area();
    const PowerBreakdown p = model.typicalPower();

    TablePrinter area_table(
        "Figure 13(a): area breakdown (TSMC 40nm)");
    area_table.header({"module", "area mm^2", "share %",
                       "paper share %"});
    auto arow = [&](const char *name, double mm2, const char *paper) {
        area_table.row({name, TablePrinter::num(mm2),
                        TablePrinter::num(100.0 * mm2 / a.total(), 1),
                        paper});
    };
    arow("Column Fetcher", a.columnFetcher, "9.3");
    arow("Row Prefetcher", a.rowPrefetcher, "20.4");
    arow("Multiplier Array", a.multiplierArray, "1.6");
    arow("Merge Tree", a.mergeTree, "60.6");
    arow("Partial Mat Writer", a.partialMatWriter, "8.2");
    area_table.row({"Total", TablePrinter::num(a.total()), "100.0",
                    "100.0 (28.49 mm^2)"});
    area_table.print(std::cout);

    std::cout << "\n";
    TablePrinter power_table("Figure 13(b): power breakdown");
    power_table.header({"module", "power W", "share %",
                        "paper share %"});
    auto prow = [&](const char *name, double w, const char *paper) {
        power_table.row({name, TablePrinter::num(w, 3),
                         TablePrinter::num(100.0 * w / p.total(), 1),
                         paper});
    };
    prow("Column Fetcher", p.columnFetcher, "1.2");
    prow("Row Prefetcher", p.rowPrefetcher, "13.5");
    prow("Multiplier Array", p.multiplierArray, "0.9");
    prow("Merge Tree", p.mergeTree, "55.4");
    prow("Partial Mat Writer", p.partialMatWriter, "2.8");
    prow("HBM", p.dram, "26.2");
    power_table.row({"Total", TablePrinter::num(p.total(), 3), "100.0",
                     "100.0"});
    power_table.print(std::cout);

    // Cross-check the static shares against a measured run: simulate
    // one representative workload through the batch driver and group
    // its event energy as in Table III. Like every other figure
    // bench, this goes through BatchRunner, so SPARCH_BENCH_CSV and
    // SPARCH_BENCH_THREADS apply here too.
    driver::BatchRunner runner = makeRunner();
    runner.add("table-I", SpArchConfig{},
               driver::suiteWorkload("web-Google", targetNnz()));
    const std::vector<driver::BatchRecord> records =
        bench::runBatch(runner);
    maybeWriteCsv(records);
    const EnergyBreakdown e = model.energy(records[0].sim);

    std::cout << "\n";
    TablePrinter energy_table(
        "Measured energy split, C = A^2 on the web-Google proxy "
        "(Table III grouping)");
    energy_table.header({"group", "uJ", "share %"});
    auto erow = [&](const char *name, double joules) {
        energy_table.row({name, TablePrinter::num(joules * 1e6),
                          TablePrinter::num(
                              100.0 * joules / e.total(), 1)});
    };
    erow("computation", e.computationJ);
    erow("SRAM", e.sramJ);
    erow("DRAM", e.dramJ);
    energy_table.row({"Total", TablePrinter::num(e.total() * 1e6),
                      "100.0"});
    energy_table.print(std::cout);
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
