/**
 * @file
 * Figure 16 (and Figure 2): dissecting the performance gain. Four
 * cumulative configurations against the OuterSPACE baseline:
 *
 *   1. pipelined multiply+merge only (no condensing, random order,
 *      no prefetcher)             — paper: 5.7x *slower* than OuterSPACE
 *   2. + matrix condensing        — paper: 8.8x speedup vs (1)
 *   3. + Huffman tree scheduler   — paper: 1.5x vs (2)
 *   4. + row prefetcher           — paper: 1.8x vs (3), 4.2x overall
 *
 * DRAM traffic shrinks alongside: 5.7x more, then 5.4x / 1.8x / 1.7x
 * less (2.8x less than OuterSPACE overall).
 */

#include <iostream>

#include "baselines/outerspace_model.hh"
#include "bench/bench_common.hh"
#include "driver/workload.hh"

namespace
{

int
runBench()
{
    using namespace sparch;
    using namespace sparch::bench;

    // The pipeline-only configuration replays every partially merged
    // result through the tree log(N/64) times, which is exactly why
    // it is slow — simulate at reduced scale so the bench stays
    // interactive.
    const std::uint64_t target = targetNnz(20000);

    // A representative subset of the suite (one per family).
    const char *names[] = {"2cubes_sphere", "wiki-Vote", "scircuit",
                           "poisson3Da",    "p2p-Gnutella31",
                           "ca-CondMat"};

    SpArchConfig pipeline_only;
    pipeline_only.matrixCondensing = false;
    pipeline_only.scheduler = SchedulerKind::Random;
    pipeline_only.rowPrefetcher = false;

    SpArchConfig condensed = pipeline_only;
    condensed.matrixCondensing = true;

    SpArchConfig huffman = condensed;
    huffman.scheduler = SchedulerKind::Huffman;

    const SpArchConfig full; // + prefetcher (Table I)

    // The 4 cumulative configs x 6 matrices fan out across the batch
    // driver; each workload's proxy is generated once and shared by
    // all four configurations.
    const std::vector<std::pair<std::string, SpArchConfig>> configs = {
        {"1 pipelined multiply+merge", pipeline_only},
        {"2 + matrix condensing", condensed},
        {"3 + Huffman scheduler", huffman},
        {"4 + row prefetcher (full)", full},
    };
    std::vector<driver::Workload> workloads;
    for (const char *name : names)
        workloads.push_back(driver::suiteWorkload(name, target));

    driver::BatchRunner runner = makeRunner();
    runner.addGrid(configs, workloads);
    const std::vector<driver::BatchRecord> records =
        bench::runBatch(runner);
    maybeWriteCsv(records);

    struct Step
    {
        std::string name;
        double bytes = 0.0;
        double seconds = 0.0;
    };
    std::vector<Step> steps;
    // addGrid is configuration-major: records [c*6, c*6+6) belong to
    // configuration c.
    for (std::size_t c = 0; c < configs.size(); ++c) {
        Step s;
        s.name = configs[c].first;
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            const SpArchResult &r =
                records[c * workloads.size() + w].sim;
            s.seconds += r.seconds;
            s.bytes += static_cast<double>(r.bytesTotal);
        }
        steps.push_back(std::move(s));
    }

    double outer_seconds = 0.0, outer_bytes = 0.0, flops = 0.0;
    for (const driver::Workload &w : workloads) {
        // The matrix is still cached from the batch run.
        const BaselineResult outer =
            outerspaceModel(w.left(), w.left());
        outer_seconds += outer.seconds;
        outer_bytes += static_cast<double>(outer.dramBytes);
        flops += static_cast<double>(outer.flops);
    }

    TablePrinter table("Figure 16: dissecting the performance gain "
                       "(aggregate over 6 matrices)");
    table.header({"configuration", "GFLOPS", "vs OuterSPACE",
                  "DRAM MB", "DRAM vs OuterSPACE", "step speedup"});
    const double outer_gflops = flops / outer_seconds / 1e9;
    table.row({"0 OuterSPACE baseline",
               TablePrinter::num(outer_gflops),
               "1.00", TablePrinter::num(outer_bytes / 1e6), "1.00",
               "-"});
    double prev_seconds = outer_seconds;
    for (const Step &s : steps) {
        table.row({std::string(s.name),
                   TablePrinter::num(flops / s.seconds / 1e9),
                   TablePrinter::num(outer_seconds / s.seconds),
                   TablePrinter::num(s.bytes / 1e6),
                   TablePrinter::num(outer_bytes / s.bytes),
                   TablePrinter::num(prev_seconds / s.seconds)});
        prev_seconds = s.seconds;
    }
    std::cout << "paper steps: 5.7x slowdown, then 8.8x, 1.5x, 1.8x "
                 "speedups; overall 4.2x faster and 2.8x less DRAM\n";
    table.print(std::cout);
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
