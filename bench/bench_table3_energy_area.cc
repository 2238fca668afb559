/**
 * @file
 * Table III: energy (nJ/FLOP) and area breakdown, SpArch vs
 * OuterSPACE. The energy split is measured from simulated event
 * counts over the benchmark suite; OuterSPACE's column reproduces the
 * paper's published constants.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "common/table_printer.hh"
#include "model/energy_model.hh"

namespace
{

int
runBench()
{
    using namespace sparch;
    using namespace sparch::bench;

    const std::uint64_t target = targetNnz(40000);
    const EnergyModel model;

    double comp = 0.0, sram = 0.0, dram = 0.0;
    std::uint64_t flops = 0;
    for (const auto &spec : benchmarkSuite()) {
        const CsrMatrix a = suiteMatrix(spec, target);
        const SpArchResult r = runSparch(a);
        const EnergyBreakdown e = model.energy(r);
        comp += e.computationJ;
        sram += e.sramJ;
        dram += e.dramJ;
        flops += r.flops;
    }
    const double per_flop = 1e9 / static_cast<double>(flops);

    TablePrinter energy("Table III (energy): nJ/FLOP breakdown");
    energy.header({"component", "SpArch (this repo)",
                   "SpArch (paper)", "OuterSPACE (paper)"});
    energy.row({"Computation", TablePrinter::num(comp * per_flop),
                "0.26", "3.19"});
    energy.row({"SRAM", TablePrinter::num(sram * per_flop), "0.34",
                "0.35"});
    energy.row({"DRAM", TablePrinter::num(dram * per_flop), "0.29",
                "1.20"});
    energy.row({"Crossbar", "N/A", "N/A", "0.21"});
    energy.row({"Overall",
                TablePrinter::num((comp + sram + dram) * per_flop),
                "0.89", "4.95"});
    energy.print(std::cout);

    std::cout << "\n";
    const AreaBreakdown a = model.area();
    // Regroup Fig. 13 modules into the Table III categories:
    // computation = multipliers + merge-tree comparator logic;
    // SRAM = buffers, FIFOs, fetch queues.
    const double comp_area = a.multiplierArray + 0.6 * a.mergeTree;
    const double sram_area = a.total() - comp_area;
    TablePrinter area("Table III (area): mm^2 breakdown");
    area.header({"component", "SpArch (this repo)", "SpArch (paper)",
                 "OuterSPACE (paper)"});
    area.row({"Computation", TablePrinter::num(comp_area), "4.1",
              "49.1"});
    area.row({"SRAM", TablePrinter::num(sram_area), "24.4", "37.5"});
    area.row({"Crossbar", "N/A", "N/A", "0.1"});
    area.row({"Overall", TablePrinter::num(a.total()), "28.5",
              "86.7"});
    area.print(std::cout);
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
