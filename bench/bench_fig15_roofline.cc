/**
 * @file
 * Figure 15: roofline analysis. Paper: theoretical operational
 * intensity 0.19 Flops/Byte on the dataset, computation roof
 * 32 GFLOPS, bandwidth roof at OI 0.19 = 23.9 GFLOPS; SpArch achieves
 * 10.4 GFLOPS vs OuterSPACE's 2.5.
 */

#include <iostream>

#include "baselines/outerspace_model.hh"
#include "bench/bench_common.hh"
#include "matrix/reference_spgemm.hh"
#include "model/roofline.hh"

namespace
{

int
runBench()
{
    using namespace sparch;
    using namespace sparch::bench;

    const std::uint64_t target = targetNnz(40000);

    // Aggregate the operational intensity and achieved GFLOPS over
    // the suite, exactly as the paper aggregates its dataset.
    double flops_total = 0.0, bytes_total = 0.0;
    double sparch_time = 0.0, outer_time = 0.0;
    for (const auto &spec : benchmarkSuite()) {
        const CsrMatrix a = suiteMatrix(spec, target);
        SpgemmCounts counts;
        spgemmDenseAccumulator(a, a, &counts);
        flops_total += 2.0 * static_cast<double>(counts.multiplies);
        bytes_total +=
            2.0 * static_cast<double>(a.storageBytes()) +
            static_cast<double>(counts.outputNnz) * bytesPerElement;

        sparch_time += runSparch(a).seconds;
        outer_time += outerspaceModel(a, a).seconds;
    }
    const double oi = flops_total / bytes_total;
    const double sparch_gflops = flops_total / sparch_time / 1e9;
    const double outer_gflops = flops_total / outer_time / 1e9;

    Roofline roof;
    TablePrinter table("Figure 15: roofline model");
    table.header({"quantity", "this repo", "paper"});
    table.row({"Operational intensity (Flops/Byte)",
               TablePrinter::num(oi, 3), "0.19"});
    table.row({"Computation roof (GFLOPS)",
               TablePrinter::num(roof.peakGflops, 1), "32.0"});
    table.row({"Bandwidth roof at OI (GFLOPS)",
               TablePrinter::num(roof.attainable(oi), 1), "23.9"});
    table.row({"SpArch achieved (GFLOPS)",
               TablePrinter::num(sparch_gflops, 1), "10.4"});
    table.row({"OuterSPACE achieved (GFLOPS)",
               TablePrinter::num(outer_gflops, 1), "2.5"});
    table.row({"SpArch fraction of roof",
               TablePrinter::num(sparch_gflops / roof.attainable(oi),
                                 2),
               "0.44"});
    table.print(std::cout);
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
