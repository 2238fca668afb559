/**
 * @file
 * Figure 18: design space exploration on merge-tree depth. Paper:
 * 2 layers = 4.13 GFLOPS / 645 MB DRAM up to 6 layers = 10.45 GFLOPS
 * / 208 MB; a 7th layer adds nothing (204 MB) — 6 layers (64-way) is
 * the chosen design point.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "driver/workload.hh"

namespace
{

int
runBench()
{
    using namespace sparch;
    using namespace sparch::bench;

    // The depth axis fans out across the batch driver; the web-Google
    // proxy is generated once and shared by all six points.
    std::vector<std::pair<std::string, SpArchConfig>> configs;
    for (unsigned layers = 2; layers <= 7; ++layers) {
        SpArchConfig cfg;
        cfg.mergeTree.layers = layers;
        configs.emplace_back(std::to_string(layers) + "-layers", cfg);
    }
    const std::vector<driver::Workload> workloads = {
        driver::suiteWorkload("web-Google", targetNnz())};

    driver::BatchRunner runner = makeRunner();
    runner.addGrid(configs, workloads);
    const std::vector<driver::BatchRecord> records =
        bench::runBatch(runner);
    maybeWriteCsv(records);

    TablePrinter t("Figure 18: merge tree depth sweep");
    t.header({"layers", "merge ways", "GFLOPS", "DRAM MB",
              "partial r/w MB", "rounds"});
    for (std::size_t i = 0; i < records.size(); ++i) {
        const unsigned layers = 2 + static_cast<unsigned>(i);
        const SpArchResult &r = records[i].sim;
        t.row({std::to_string(layers),
               std::to_string(1u << layers),
               TablePrinter::num(r.gflops),
               TablePrinter::num(
                   static_cast<double>(r.bytesTotal) / 1e6, 3),
               TablePrinter::num(
                   static_cast<double>(r.bytesPartialRead +
                                       r.bytesPartialWrite) /
                       1e6,
                   3),
               std::to_string(r.mergeRounds)});
    }
    t.print(std::cout);
    std::cout << "paper: 4.13 -> 10.45 GFLOPS and 645 -> 208 MB from "
                 "2 to 6 layers; 7 layers adds nothing\n";
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
