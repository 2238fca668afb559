/**
 * @file
 * Section III-C analysis: the closed-form DRAM-traffic model behind
 * Fig. 16. Reproduces the re-read factor E ~ w/(w-1) ln t and the
 * traffic chain 2.5M (OuterSPACE) -> 13.9M (pipeline only) -> 2.5M
 * (+condensing) -> 1.5M (+Huffman) -> 0.88M (+prefetcher), in units
 * of the multiplication count M.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "common/table_printer.hh"
#include "core/analytic_model.hh"

namespace
{

int
runBench()
{
    using namespace sparch;

    {
        TablePrinter t("Re-read factor E(N, w): expected DRAM "
                       "round-trips per multiplied result");
        t.header({"partial matrices N", "w=4", "w=16", "w=64",
                  "w=64 (ln approx)"});
        for (double n : {100.0, 1000.0, 10000.0, 140000.0, 1e6}) {
            t.row({TablePrinter::sci(n, 0),
                   TablePrinter::num(rereadFactorExact(n, 4)),
                   TablePrinter::num(rereadFactorExact(n, 16)),
                   TablePrinter::num(rereadFactorExact(n, 64)),
                   TablePrinter::num(rereadFactorApprox(n, 64))});
        }
        t.print(std::cout);
        std::cout << "paper: ln(140000/63) - 1 ~ 6.7 re-reads at the "
                     "average benchmark size\n\n";
    }

    {
        AnalyticInputs in; // the paper's running example
        const AnalyticTraffic traffic = analyzeTraffic(in);
        TablePrinter t("Section III-C traffic chain (elements, in "
                       "units of M = multiplications)");
        t.header({"configuration", "traffic / M", "paper"});
        const double m = in.multiplies;
        t.row({"OuterSPACE (multiply then merge)",
               TablePrinter::num(traffic.outerspace / m), "2.5"});
        t.row({"pipelined multiply+merge only",
               TablePrinter::num(traffic.pipelineOnly / m), "13.9"});
        t.row({"+ matrix condensing",
               TablePrinter::num(traffic.withCondensing / m), "2.5"});
        t.row({"+ Huffman tree scheduler",
               TablePrinter::num(traffic.withHuffman / m), "1.5"});
        t.row({"+ row prefetcher (62% hit rate)",
               TablePrinter::num(traffic.withPrefetcher / m),
               "0.88"});
        t.print(std::cout);
    }
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
